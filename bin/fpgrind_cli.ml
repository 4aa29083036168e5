(* fpgrind: command-line driver for the Herbgrind reproduction.

     fpgrind analyze prog.mc --inputs 1.0,2.0 --precision 1000
     fpgrind analyze bench:nmse-3-1 --iterations 16
     fpgrind run prog.mc
     fpgrind suite -j 4 --timeout 30 --json results.jsonl
     fpgrind validate results.jsonl
     fpgrind list-benchmarks
     fpgrind improve "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))" --lo 1e8 --hi 1e15

   Each subcommand family lives in its own module; [Common] holds the
   flags and terms they share. *)

open Cmdliner

let () =
  let doc = "find root causes of floating-point error (Herbgrind reproduction)" in
  let info = Cmd.info "fpgrind" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            Analyze_cmds.analyze; Analyze_cmds.sanitize; Analyze_cmds.run;
            Suite_cmds.suite; Suite_cmds.validate; Suite_cmds.list_benchmarks;
            Improve_cmd.improve; Fuzz_cmds.fuzz; Fuzz_cmds.campaign;
            Serve_cmds.serve; Serve_cmds.client; Serve_cmds.loadgen;
          ]))
