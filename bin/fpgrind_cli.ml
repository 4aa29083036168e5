(* fpgrind: command-line driver for the Herbgrind reproduction.

     fpgrind analyze prog.mc --inputs 1.0,2.0 --precision 1000
     fpgrind analyze bench:nmse-3-1 --iterations 16
     fpgrind run prog.mc
     fpgrind suite -j 4 --timeout 30 --json results.jsonl
     fpgrind validate results.jsonl
     fpgrind list-benchmarks
     fpgrind improve "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))" --lo 1e8 --hi 1e15
*)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_program ~wrap_libm ~vectorize ~iterations path : Vex.Ir.prog * float array =
  if Filename.check_suffix path ".fpcore" then begin
    let core = Fpcore.Parse.parse_core (read_file path) in
    let prog = Fpcore.Compile.compile ~wrap_libm ~n_inputs:iterations core in
    (prog, [||])
  end
  else if String.length path > 6 && String.sub path 0 6 = "bench:" then begin
    let name = String.sub path 6 (String.length path - 6) in
    let bench = Fpcore.Suite.find name in
    let core = Fpcore.Suite.core_of bench in
    let prog =
      Fpcore.Compile.compile ~wrap_libm ~n_inputs:iterations ~name core
    in
    let inputs = Fpcore.Suite.inputs_for bench ~n:iterations in
    (prog, inputs)
  end
  else (Minic.compile_file ~wrap_libm ~vectorize path, [||])

(* ---------- common options ---------- *)

let path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM"
        ~doc:
          "A MiniC source file (.mc), an FPCore file (.fpcore), or \
           bench:NAME for a suite benchmark.")

let inputs_arg =
  Arg.(
    value & opt (list float) []
    & info [ "inputs" ] ~docv:"FLOATS"
        ~doc:"Comma-separated values returned by the __arg builtin.")

let iterations_arg =
  Arg.(
    value & opt int 16
    & info [ "iterations" ] ~docv:"N"
        ~doc:"Input tuples to run for FPCore programs.")

let precision_arg =
  Arg.(
    value & opt int Core.Config.default.Core.Config.precision
    & info [ "precision" ] ~docv:"BITS" ~doc:"Shadow real precision in bits.")

let threshold_arg =
  Arg.(
    value & opt float Core.Config.default.Core.Config.error_threshold
    & info [ "threshold" ] ~docv:"BITS"
        ~doc:"Bits of local error that taint an operation.")

let depth_arg =
  Arg.(
    value & opt int Core.Config.default.Core.Config.equiv_depth
    & info [ "equiv-depth" ] ~docv:"D"
        ~doc:"Depth of exact value-equivalence tracking (paper default 5).")

let vectorize_arg =
  Arg.(
    value & flag
    & info [ "vectorize" ]
        ~doc:"Auto-vectorize elementwise double loops to SSE operations.")

let no_wrap_arg =
  Arg.(
    value & flag
    & info [ "no-wrap-libm" ]
        ~doc:
          "Compile math calls to the MiniC math library instead of \
           intercepted library calls (section 8.2 ablation).")

let no_reals_arg =
  Arg.(value & flag & info [ "no-reals" ] ~doc:"Disable the shadow real execution.")

let no_exprs_arg =
  Arg.(value & flag & info [ "no-expressions" ] ~doc:"Disable expression building.")

let no_typeinfer_arg =
  Arg.(
    value & flag
    & info [ "no-type-inference" ] ~doc:"Disable superblock type inference.")

let classic_arg =
  Arg.(
    value & flag
    & info [ "classic-antiunify" ]
        ~doc:"Use classical most-specific generalization (no internal pruning).")

let all_spots_arg =
  Arg.(
    value & flag
    & info [ "all-spots" ] ~doc:"Report spots with no observed error too.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("full", Core.Config.Full);
             ("sanitize", Core.Config.Sanitize);
             ("tiered", Core.Config.Tiered);
           ])
        Core.Config.Full
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Analysis engine: $(b,full) is the Herbgrind-style shadow-real \
           analysis; $(b,sanitize) is the fast NSan-style double-double \
           sanitizer; $(b,tiered) triages with the sanitizer and escalates \
           only the flagged slices to the full analysis.")

(* ---------- running the sanitizer engine (analyze/sanitize commands) ---------- *)

let run_sanitizer ~cfg ~fatal ~all_checks ~inputs prog : int =
  match
    Sanitize.Sexec.run ~max_steps:1_000_000_000 ~inputs ~fatal cfg prog
  with
  | r ->
      let rep = Sanitize.Report.build ~report_all:all_checks r in
      print_string (Sanitize.Report.to_string rep);
      let st = r.Sanitize.Sexec.sx_stats in
      Printf.printf
        "\n--- statistics ---\n\
         superblocks run:          %d\n\
         statements run:           %d\n\
         statements instrumented:  %d\n\
         shadowed ops:             %d\n\
         checks run:               %d\n"
        st.Sanitize.Sexec.blocks_run st.Sanitize.Sexec.stmts_run
        st.Sanitize.Sexec.stmts_instrumented st.Sanitize.Sexec.shadow_ops
        st.Sanitize.Sexec.checks_run;
      0
  | exception Sanitize.Sexec.Fatal_finding f ->
      Printf.printf "FATAL: %s\n" (Sanitize.Report.finding_to_string f);
      2

(* ---------- running the tiered engine (analyze/sanitize commands) ---------- *)

let run_tiered ~cfg ~inputs prog : int =
  let r = Tiered.analyze ~cfg ~max_steps:1_000_000_000 ~inputs prog in
  print_string (Tiered.report_string r);
  let sst = r.Tiered.t_san.Sanitize.Sexec.sx_stats in
  Printf.printf
    "\n--- statistics ---\n\
     triage superblocks run:   %d\n\
     triage checks run:        %d\n\
     escalation seeds:         %d\n\
     slice statements:         %d\n"
    sst.Sanitize.Sexec.blocks_run sst.Sanitize.Sexec.checks_run
    (List.length r.Tiered.t_seeds)
    r.Tiered.t_slice_stmts;
  (match r.Tiered.t_full with
  | None -> Printf.printf "escalation:               none\n"
  | Some full ->
      let st = full.Core.Analysis.raw.Core.Exec.r_stats in
      Printf.printf
        "escalated fp ops:         %d\n\
         escalated compensations:  %d\n"
        st.Core.Exec.fp_ops st.Core.Exec.compensations);
  0

(* ---------- analyze ---------- *)

let analyze_cmd =
  let run path inputs iterations vectorize precision threshold depth no_wrap
      no_reals no_exprs no_ti classic all_spots engine =
    let cfg =
      {
        Core.Config.default with
        Core.Config.precision;
        error_threshold = threshold;
        equiv_depth = depth;
        enable_reals = not no_reals;
        enable_expressions = not no_exprs;
        type_inference = not no_ti;
        classic_antiunify = classic;
        report_all_spots = all_spots;
        engine;
      }
    in
    try
      let prog, bench_inputs =
        load_program ~wrap_libm:(not no_wrap) ~vectorize ~iterations path
      in
      let inputs = if inputs <> [] then Array.of_list inputs else bench_inputs in
      match engine with
      | Core.Config.Sanitize ->
          run_sanitizer ~cfg ~fatal:false ~all_checks:all_spots ~inputs prog
      | Core.Config.Tiered -> run_tiered ~cfg ~inputs prog
      | Core.Config.Full ->
          let r =
            Core.Analysis.analyze ~cfg ~max_steps:1_000_000_000 ~inputs prog
          in
          print_string (Core.Analysis.report_string r);
          let st = r.Core.Analysis.raw.Core.Exec.r_stats in
          Printf.printf
            "\n--- statistics ---\n\
             superblocks run:          %d\n\
             statements run:           %d\n\
             statements instrumented:  %d\n\
             floating-point ops:       %d\n\
             compensations detected:   %d\n"
            st.Core.Exec.blocks_run st.Core.Exec.stmts_run
            st.Core.Exec.stmts_instrumented st.Core.Exec.fp_ops
            st.Core.Exec.compensations;
          0
    with
    | Minic.Compile_error msg | Fpcore.Parse.Error msg | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
  in
  let term =
    Term.(
      const run $ path_arg $ inputs_arg $ iterations_arg $ vectorize_arg
      $ precision_arg $ threshold_arg $ depth_arg $ no_wrap_arg $ no_reals_arg
      $ no_exprs_arg $ no_typeinfer_arg $ classic_arg $ all_spots_arg
      $ engine_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run a program under the full Herbgrind analysis (or, with --engine \
          sanitize / --engine tiered, the NSan-style sanitizer or the \
          two-pass tiered engine) and print the report.")
    term

(* ---------- sanitize (the NSan-style dual-precision engine) ---------- *)

let sanitize_cmd =
  let path_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:
            "A MiniC source file (.mc), an FPCore file (.fpcore), or \
             bench:NAME for a suite benchmark. Optional with --bench-kernel.")
  in
  let fatal_arg =
    Arg.(
      value & flag
      & info [ "fatal" ]
          ~doc:
            "Stop at the first firing check (exit 2) instead of resuming \
             and aggregating findings.")
  in
  let all_checks_arg =
    Arg.(
      value & flag
      & info [ "all-checks" ]
          ~doc:"Report every check point, including ones that never fired.")
  in
  let bench_kernel_arg =
    Arg.(
      value & flag
      & info [ "bench-kernel" ]
          ~doc:
            "Measure the double-double kernel (ns per operation) instead of \
             running a program; used by scripts/bench.sh.")
  in
  (* ns/op of the twofloat kernel, measured over a dependent chain so the
     work cannot be dead-code-eliminated; deterministic operands *)
  let bench_kernel () =
    let module TF = Sanitize.Twofloat in
    let n = 5_000_000 in
    let time name f =
      let t0 = Unix.gettimeofday () in
      let acc = f n in
      let t1 = Unix.gettimeofday () in
      Printf.printf "%-6s %8.2f ns/op   (sink %h)\n" name
        (1e9 *. (t1 -. t0) /. float_of_int n)
        (TF.to_float acc)
    in
    let x = TF.of_float 1.000000123 in
    time "add" (fun n ->
        let acc = ref (TF.of_float 0.1) in
        for _ = 1 to n do
          acc := TF.add !acc x
        done;
        !acc);
    time "mul" (fun n ->
        let acc = ref (TF.of_float 1.0) in
        for _ = 1 to n do
          acc := TF.mul !acc x
        done;
        !acc);
    time "div" (fun n ->
        let acc = ref (TF.of_float 1.0) in
        for _ = 1 to n do
          acc := TF.div !acc x
        done;
        !acc);
    time "sqrt" (fun n ->
        let acc = ref (TF.of_float 2.0) in
        for _ = 1 to n do
          acc := TF.sqrt (TF.add_d !acc 1.5)
        done;
        !acc);
    time "fma" (fun n ->
        let acc = ref (TF.of_float 0.5) in
        for _ = 1 to n do
          acc := TF.fma !acc x (TF.of_float 1e-9)
        done;
        !acc);
    0
  in
  let engine_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("sanitize", Core.Config.Sanitize);
               ("tiered", Core.Config.Tiered);
             ])
          Core.Config.Sanitize
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "$(b,sanitize) (the default) runs the dual-precision sanitizer \
             alone; $(b,tiered) escalates its findings to the full analysis.")
  in
  let run path inputs iterations vectorize threshold no_wrap fatal all_checks
      bench_kernel_flag engine =
    if bench_kernel_flag then bench_kernel ()
    else
      match path with
      | None ->
          Printf.eprintf "error: sanitize needs a PROGRAM argument\n";
          1
      | Some path -> (
          let cfg =
            {
              Core.Config.default with
              Core.Config.error_threshold = threshold;
              engine;
            }
          in
          try
            let prog, bench_inputs =
              load_program ~wrap_libm:(not no_wrap) ~vectorize ~iterations path
            in
            let inputs =
              if inputs <> [] then Array.of_list inputs else bench_inputs
            in
            match engine with
            | Core.Config.Tiered ->
                if fatal || all_checks then begin
                  Printf.eprintf
                    "error: --fatal and --all-checks apply to the sanitize \
                     engine only\n";
                  1
                end
                else run_tiered ~cfg ~inputs prog
            | Core.Config.Sanitize | Core.Config.Full ->
                run_sanitizer ~cfg ~fatal ~all_checks ~inputs prog
          with
          | Minic.Compile_error msg | Fpcore.Parse.Error msg | Sys_error msg ->
              Printf.eprintf "error: %s\n" msg;
              1)
  in
  let term =
    Term.(
      const run $ path_arg $ inputs_arg $ iterations_arg $ vectorize_arg
      $ threshold_arg $ no_wrap_arg $ fatal_arg $ all_checks_arg
      $ bench_kernel_arg $ engine_arg)
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Run a program under the NSan-style dual-precision shadow \
          sanitizer: every float is shadowed by a double-double, and checks \
          fire at stores, float-to-int casts, flipped comparisons and \
          outputs.")
    term

(* ---------- run (uninstrumented) ---------- *)

let run_cmd =
  let run path inputs iterations vectorize no_wrap =
    try
      let prog, bench_inputs =
        load_program ~wrap_libm:(not no_wrap) ~vectorize ~iterations path
      in
      let inputs = if inputs <> [] then Array.of_list inputs else bench_inputs in
      let st = Vex.Machine.run ~max_steps:1_000_000_000 ~inputs prog in
      List.iter
        (fun (o : Vex.Machine.output) ->
          Printf.printf "%s\n" (Vex.Value.to_string o.Vex.Machine.value))
        (Vex.Machine.outputs st);
      0
    with
    | Minic.Compile_error msg | Fpcore.Parse.Error msg | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
  in
  let term =
    Term.(
      const run $ path_arg $ inputs_arg $ iterations_arg $ vectorize_arg
      $ no_wrap_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a program natively (no instrumentation) and print its outputs.")
    term

(* ---------- suite (batch analysis over the fleet) ---------- *)

let suite_cmd =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:
            "Benchmarks to analyze (default: the whole vendored FPBench \
             suite).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains to run jobs on.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-job wall-clock deadline; an overrunning job is marked \
                timeout instead of stalling the fleet.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write per-benchmark results as JSON lines to $(docv). If the \
             file already exists it also serves as a result cache: jobs \
             whose content hash (source, sampling, config) is unchanged \
             are skipped.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Re-analyze every benchmark even if --json holds results.")
  in
  let group_arg =
    Arg.(
      value & opt (some (enum [ ("straight", `Straight); ("loop", `Loop) ])) None
      & info [ "group" ] ~docv:"GROUP"
          ~doc:"Restrict to one benchmark group (straight|loop).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Input sampling seed.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-job progress lines.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero if any job failed or timed out.")
  in
  let dir_arg =
    Arg.(
      value & opt_all string []
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Ingest an external corpus: every .fpcore file (FPCore form \
             stream) and .json file (Herbie-style datafile) in $(docv) \
             becomes a suite job. Malformed inputs become structured \
             failed records, not crashes. Repeatable.")
  in
  let datafile_arg =
    Arg.(
      value & opt_all string []
      & info [ "datafile" ] ~docv:"FILE"
          ~doc:
            "Ingest a Herbie-style JSON datafile: each test entry's FPCore \
             input becomes a suite job. Repeatable.")
  in
  let run names jobs timeout iterations precision threshold json_path no_cache
      group seed quiet strict engine dirs datafiles =
    let cfg =
      {
        Core.Config.default with
        Core.Config.precision;
        error_threshold = threshold;
        engine;
      }
    in
    try
      (* external corpora replace the vendored suite unless benchmarks
         are also named explicitly *)
      let vendored =
        if (dirs = [] && datafiles = []) || names <> [] then
          Fpcore.Suite.enumerate ~iterations ~seed ~names ?group ()
        else []
      in
      let loaded =
        Fpcore.Suite.dedup_loaded
          (Fpcore.Suite.merge_loaded
             (List.map Fpcore.Suite.load_path dirs
             @ List.map Fpcore.Suite.load_datafile datafiles))
      in
      let engine_name = Core.Config.engine_name engine in
      let failed_specs =
        List.map
          (fun (e : Fpcore.Suite.load_error) ->
            {
              Fleet.sp_name = e.Fpcore.Suite.le_name;
              sp_group = "ingest";
              sp_key = "";
              sp_engine = engine_name;
              sp_work =
                (fun ~tick:_ ->
                  failwith
                    (Printf.sprintf "%s: %s" e.Fpcore.Suite.le_file
                       e.Fpcore.Suite.le_reason));
            })
          loaded.Fpcore.Suite.l_failures
      in
      let specs =
        List.map (Fleet.bench_spec ~cfg)
          (vendored
          @ Fpcore.Suite.jobs_of_loaded ~iterations ~seed loaded)
        @ failed_specs
      in
      let cache =
        match json_path with
        | Some path when not no_cache -> Some (Fleet.Store.cache_of_file path)
        | _ -> None
      in
      let on_progress =
        if quiet then None
        else
          Some
            (fun (p : Fleet.progress) ->
              Printf.eprintf "[%3d/%3d] %-8s %-24s %6.2fs\n%!" p.Fleet.pr_done
                p.Fleet.pr_total
                (Fleet.Store.status_to_string p.Fleet.pr_last.Fleet.o_status)
                p.Fleet.pr_last.Fleet.o_name p.Fleet.pr_last.Fleet.o_wall_s)
      in
      (* benchmark/CI hooks, env-gated so the flag surface stays stable:
         FPGRIND_SUITE_PASSES=N re-runs the same spec list N times in
         this one process (pass p > 1 writes to <json>.passP), which is
         how ci.sh proves the second pass is served by the compile
         cache; FPGRIND_COMPILE_STATS=1 prints one JSON line per pass
         with the process-wide compile counters for jq. *)
      let passes =
        match Sys.getenv_opt "FPGRIND_SUITE_PASSES" with
        | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
        | None -> 1
      in
      let compile_stats = Sys.getenv_opt "FPGRIND_COMPILE_STATS" = Some "1" in
      let last = ref [] in
      for p = 1 to passes do
        let outcomes = Fleet.run ~jobs ?timeout ?cache ?on_progress specs in
        (match json_path with
        | Some path ->
            let path =
              if p = 1 then path else path ^ ".pass" ^ string_of_int p
            in
            Fleet.Store.save path outcomes
        | None -> ());
        if compile_stats then
          Printf.eprintf "{\"pass\":%d,\"blocks_compiled\":%d,\"cache_hits\":%d}\n%!"
            p
            (Vex.Compile.blocks_compiled_total ())
            (Vex.Compile.cache_hits_total ());
        last := outcomes
      done;
      let outcomes = !last in
      print_string (Fleet.Store.summary_table outcomes);
      let bad =
        List.exists
          (fun (o : Fleet.outcome) ->
            match o.Fleet.o_status with
            | Fleet.Failed _ | Fleet.Timed_out -> true
            | Fleet.Done | Fleet.Cached -> false)
          outcomes
      in
      if strict && bad then 1 else 0
    with
    | Invalid_argument msg | Sys_error msg | Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Json.Parse_error msg ->
        Printf.eprintf
          "error: corrupt results store (%s); pass --no-cache or delete the \
           file\n"
          msg;
        1
  in
  let term =
    Term.(
      const run $ names_arg $ jobs_arg $ timeout_arg $ iterations_arg
      $ precision_arg $ threshold_arg $ json_arg $ no_cache_arg $ group_arg
      $ seed_arg $ quiet_arg $ strict_arg $ engine_arg $ dir_arg
      $ datafile_arg)
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Batch-analyze FPBench benchmarks on a parallel, fault-isolated \
          worker pool, with JSONL results and caching.")
    term

(* ---------- validate (check a JSONL results store) ---------- *)

let validate_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A JSONL results file written by suite --json.")
  in
  let expect_engine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Require every record to come from this engine (full, sanitize \
             or tiered); any other record fails validation.")
  in
  let run path expect_engine =
    match Fleet.Store.load_lenient path with
    | outcomes, skipped ->
        let count pred = List.length (List.filter pred outcomes) in
        let ok =
          count (fun (o : Fleet.outcome) -> o.Fleet.o_status = Fleet.Done)
        in
        let cached =
          count (fun (o : Fleet.outcome) -> o.Fleet.o_status = Fleet.Cached)
        in
        let timeout =
          count (fun (o : Fleet.outcome) -> o.Fleet.o_status = Fleet.Timed_out)
        in
        let failed =
          count (fun (o : Fleet.outcome) ->
              match o.Fleet.o_status with Fleet.Failed _ -> true | _ -> false)
        in
        Printf.printf
          "%s: %d record%s (%d ok, %d cached, %d failed, %d timeout%s)\n" path
          (List.length outcomes)
          (if List.length outcomes = 1 then "" else "s")
          ok cached failed timeout
          (if skipped = 0 then ""
           else Printf.sprintf ", %d truncated record skipped" skipped);
        let engines =
          List.sort_uniq compare
            (List.map (fun (o : Fleet.outcome) -> o.Fleet.o_engine) outcomes)
        in
        let engines =
          List.filter (fun e -> e = "full") engines
          @ List.filter (fun e -> e <> "full") engines
        in
        if engines <> [] then
          Printf.printf "engines: %s\n"
            (String.concat ", "
               (List.map
                  (fun e ->
                    Printf.sprintf "%s %d" e
                      (count (fun (o : Fleet.outcome) -> o.Fleet.o_engine = e)))
                  engines));
        (* records from an engine this binary does not know are always
           invalid: they cannot be compared against anything *)
        let unknown =
          List.filter
            (fun (o : Fleet.outcome) ->
              Core.Config.engine_of_name o.Fleet.o_engine = None)
            outcomes
        in
        List.iter
          (fun (o : Fleet.outcome) ->
            Printf.eprintf "error: record %s has unknown engine %S\n"
              o.Fleet.o_name o.Fleet.o_engine)
          unknown;
        let mismatched =
          match expect_engine with
          | None -> []
          | Some want ->
              if Core.Config.engine_of_name want = None then begin
                Printf.eprintf
                  "error: unknown engine %S (expected full, sanitize or \
                   tiered)\n"
                  want;
                exit 1
              end;
              List.filter
                (fun (o : Fleet.outcome) -> o.Fleet.o_engine <> want)
                outcomes
        in
        (match (mismatched, expect_engine) with
        | _ :: _, Some want ->
            List.iter
              (fun (o : Fleet.outcome) ->
                Printf.eprintf
                  "error: record %s came from the %s engine, expected %s\n"
                  o.Fleet.o_name o.Fleet.o_engine want)
              mismatched
        | _ -> ());
        if
          failed > 0 || timeout > 0 || skipped > 0
          || mismatched <> [] || unknown <> []
        then begin
          Printf.eprintf
            "error: store has %d failed, %d timeout, %d truncated, %d \
             engine-mismatched record(s)\n"
            failed timeout skipped
            (List.length mismatched + List.length unknown);
          1
        end
        else 0
    | exception Json.Parse_error msg | exception Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | exception Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Parse a JSONL results store, report per-status counts, and exit \
          nonzero if any record is failed, timed out, engine-mismatched, or \
          invalid.")
    Term.(const run $ path_arg $ expect_engine_arg)

(* ---------- list-benchmarks ---------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Fpcore.Suite.bench) ->
        Printf.printf "%-24s %s\n" b.Fpcore.Suite.name
          (match b.Fpcore.Suite.group with
          | `Straight -> "straight-line"
          | `Loop -> "looping"))
      Fpcore.Suite.all;
    0
  in
  Cmd.v
    (Cmd.info "list-benchmarks" ~doc:"List the vendored FPBench suite.")
    Term.(const run $ const ())

(* ---------- improve ---------- *)

(* "bench:NAME" resolves to a suite benchmark with its sampling ranges;
   raw FPCore source gets a synthetic bench whose every variable samples
   [lo, hi] independently (log-uniformly when positive). Both paths draw
   the point context from the suite's seeded xorshift stream — the old
   diagonal sampling (every variable at the same value per point)
   amounted to scoring candidates on a single representative axis and
   was exactly the overfit the soundiness oracle kept flagging. *)
let improve_bench_of ~lo ~hi (src : string) : Fpcore.Suite.bench =
  if String.length src > 6 && String.sub src 0 6 = "bench:" then
    Fpcore.Suite.find (String.sub src 6 (String.length src - 6))
  else
    let core = Fpcore.Parse.parse_core src in
    Regime.Sampler.bench_of_ranges ~name:"<request>" ~src
      (List.map (fun v -> (v, lo, hi)) core.Fpcore.Ast.args)

let improve_cmd =
  let expr_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FPCORE"
          ~doc:
            "An FPCore expression to improve, or bench:NAME for a suite \
             benchmark (sampled over its own input ranges). Unused with \
             --sweep.")
  in
  let lo_arg =
    Arg.(value & opt float 1.0 & info [ "lo" ] ~doc:"Sample range low end.")
  in
  let hi_arg =
    Arg.(value & opt float 1e9 & info [ "hi" ] ~doc:"Sample range high end.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Context seed.")
  in
  let points_arg =
    Arg.(
      value & opt int 24
      & info [ "points" ] ~docv:"N" ~doc:"Points per sampled context.")
  in
  let beam_arg =
    Arg.(value & opt int 8 & info [ "beam" ] ~docv:"N" ~doc:"Beam width.")
  in
  let depth_arg =
    Arg.(
      value & opt int 3 & info [ "depth" ] ~docv:"N" ~doc:"Rewrite depth.")
  in
  let regimes_arg =
    Arg.(
      value & flag
      & info [ "regimes" ]
          ~doc:
            "Infer input regimes: branch between beam candidates along a \
             single-variable threshold when that lowers total predicted \
             error past an MDL penalty, then re-validate the branched fix \
             on a disjoint resampled context. Prints the actual-vs-\
             predicted error table; exits 1 if the fix is unsound.")
  in
  let penalty_arg =
    Arg.(
      value & opt float 0.5
      & info [ "penalty" ] ~docv:"BITS"
          ~doc:"MDL penalty per context point per extra regime.")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run --regimes over every straight-line suite benchmark \
             (ignoring FPCORE), one JSON line per benchmark on --json.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the regime report(s) as JSON(L) to $(docv); - is stdout.")
  in
  let minic_arg =
    Arg.(
      value & flag
      & info [ "minic" ] ~doc:"Also print the branched fix as MiniC.")
  in
  let run src lo hi seed points beam depth regimes penalty sweep json minic =
    let opts = { Regime.Search.default_options with Regime.Search.penalty_bits = penalty } in
    let json_out lines =
      match json with
      | None -> ()
      | Some "-" -> List.iter print_endline lines
      | Some path ->
          let oc = open_out path in
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          close_out oc
    in
    let with_wall f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let report_line (r : Regime.report) wall =
      match Regime.to_json r with
      | Json.Obj kvs ->
          Json.to_string
            (Json.Obj (kvs @ [ ("wall_s", Json.Num wall) ]))
      | j -> Json.to_string j
    in
    try
      if sweep then begin
        let benches =
          List.filter
            (fun b -> b.Fpcore.Suite.group = `Straight)
            Fpcore.Suite.all
        in
        let lines =
          List.map
            (fun b ->
              let r, wall =
                with_wall (fun () ->
                    Regime.infer ~beam ~depth ~points ~seed ~opts b)
              in
              let act_after =
                match r.Regime.re_selected with
                | "branched" -> r.Regime.re_act_branched
                | "single" -> r.Regime.re_act_single
                | _ -> r.Regime.re_act_before
              in
              Printf.eprintf
                "%-20s %d regimes  %-8s  %s -> %s bits on resample%s\n%!"
                b.Fpcore.Suite.name
                (Regime.selected_regimes r.Regime.re_selected
                   r.Regime.re_regimes)
                r.Regime.re_selected
                (Rewrite.Soundness.fmt_bits r.Regime.re_act_before)
                (Rewrite.Soundness.fmt_bits act_after)
                (if r.Regime.re_soundness.Rewrite.Soundness.r_sound then ""
                 else "  UNSOUND");
              report_line r wall)
            benches
        in
        json_out lines;
        0
      end
      else begin
        let src =
          match src with
          | Some s -> s
          | None ->
              Printf.eprintf "error: FPCORE argument required without --sweep\n";
              raise Exit
        in
        let bench = improve_bench_of ~lo ~hi src in
        if regimes then begin
          let r, wall =
            with_wall (fun () ->
                Regime.infer ~beam ~depth ~points ~seed ~opts bench)
          in
          print_endline (Regime.table r);
          if minic then begin
            match
              Regime.Emit.minic_program ~args:r.Regime.re_args
                r.Regime.re_fix
            with
            | src -> Printf.printf "--- minic ---\n%s" src
            | exception Regime.Emit.Unsupported what ->
                Printf.printf "--- minic: unsupported (%s) ---\n" what
          end;
          json_out [ report_line r wall ];
          if r.Regime.re_soundness.Rewrite.Soundness.r_sound then 0 else 1
        end
        else begin
          let core = Fpcore.Suite.core_of bench in
          let samples = Regime.Sampler.context ~seed ~n:points bench in
          let r =
            Rewrite.Improve.improve ~beam ~depth core.Fpcore.Ast.body samples
          in
          Printf.printf "error before: %.2f bits\nerror after:  %.2f bits\n"
            r.Rewrite.Improve.error_before r.Rewrite.Improve.error_after;
          Printf.printf "improved: %s\n"
            (Regime.Emit.render_core ~args:core.Fpcore.Ast.args
               r.Rewrite.Improve.improved);
          0
        end
      end
    with
    | Fpcore.Parse.Error msg | Fpcore.Sexp.Parse_error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Invalid_argument msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Exit -> 1
  in
  Cmd.v
    (Cmd.info "improve"
       ~doc:
         "Search for a more accurate equivalent of an FPCore expression, \
          optionally with regime inference (--regimes).")
    Term.(
      const run $ expr_arg $ lo_arg $ hi_arg $ seed_arg $ points_arg
      $ beam_arg $ depth_arg $ regimes_arg $ penalty_arg $ sweep_arg
      $ json_arg $ minic_arg)

(* ---------- fuzz (differential campaigns) ---------- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let iters_arg =
    Arg.(
      value & opt int 1000
      & info [ "iters" ] ~docv:"N"
          ~doc:
            "Programs to generate and check. 0 skips generation (useful \
             with --corpus to replay only).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains. The transcript is identical for any value: \
             program i depends only on (seed, i).")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-chunk wall-clock deadline.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Replay every .mc reproducer in $(docv) before the campaign, \
             and write newly shrunken counterexamples there.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress lines.")
  in
  let consistency_arg =
    Arg.(
      value & flag
      & info [ "consistency" ]
          ~doc:
            "Run the engine-consistency oracle on every program (sanitizer \
             findings vs full-analysis spots), not just the deep slice.")
  in
  let tiered_consistency_arg =
    Arg.(
      value & flag
      & info [ "tiered-consistency" ]
          ~doc:
            "Run the tiered-consistency oracle on every program: every \
             spot the tiered engine reports must be bit-identical to the \
             full engine's record for it, and its outputs must match.")
  in
  let soundiness_arg =
    Arg.(
      value & flag
      & info [ "soundiness" ]
          ~doc:
            "Run the soundiness oracle instead of the differential \
             campaign: iteration i runs Rewrite.Improve on suite \
             benchmark (i mod 82) over a seeded search context and \
             asserts the accepted rewrite is error-non-increasing on a \
             disjoint resampled context. Violations print an actual-vs-\
             predicted error table and exit nonzero.")
  in
  let run seed iters jobs timeout corpus quiet consistency tiered_consistency
      soundiness =
    if soundiness then begin
      let benches = Fpcore.Suite.all in
      let nbench = List.length benches in
      let violations = ref 0 in
      for i = 0 to iters - 1 do
        let bench = List.nth benches (i mod nbench) in
        let r =
          Rewrite.Soundness.check_bench
            ~seed:((seed * 1_000_003) + i)
            bench
        in
        if not r.Rewrite.Soundness.r_sound then begin
          incr violations;
          print_endline (Rewrite.Soundness.table r)
        end
        else if not quiet then
          Printf.eprintf "[%3d/%3d] sound    %s\n%!" (i + 1) iters
            bench.Fpcore.Suite.name
      done;
      Printf.printf "fuzz: seed %d, %d soundiness checks, %d violations\n"
        seed iters !violations;
      if !violations > 0 then 1 else 0
    end
    else begin
    let checks =
      {
        Fuzz.Oracle.default_checks with
        Fuzz.Oracle.c_consistency = consistency;
        c_tiered = tiered_consistency;
      }
    in
    let bad = ref false in
    (* replay the corpus first: every past counterexample must stay fixed *)
    (match corpus with
    | Some dir when Sys.file_exists dir ->
        List.iter
          (fun (file, result) ->
            match result with
            | Fuzz.Oracle.Pass ->
                if not quiet then Printf.eprintf "replay %-40s ok\n%!" file
            | Fuzz.Oracle.Skip why ->
                if not quiet then
                  Printf.eprintf "replay %-40s skip (%s)\n%!" file why
            | Fuzz.Oracle.Fail d ->
                bad := true;
                Printf.printf "replay %s: DIVERGENT (%s) %s\n" file
                  d.Fuzz.Oracle.d_oracle d.Fuzz.Oracle.d_detail)
          (Fuzz.Campaign.replay_dir dir)
    | Some dir -> Printf.eprintf "warning: corpus dir %s does not exist\n" dir
    | None -> ());
    if iters > 0 then begin
      let on_progress =
        if quiet then None
        else
          Some
            (fun (p : Fleet.progress) ->
              Printf.eprintf "[%3d/%3d] %-8s %s\n%!" p.Fleet.pr_done
                p.Fleet.pr_total
                (Fleet.Store.status_to_string p.Fleet.pr_last.Fleet.o_status)
                p.Fleet.pr_last.Fleet.o_name)
      in
      let t =
        Fuzz.Campaign.run ~checks ~jobs ?timeout ?on_progress ~seed ~iters ()
      in
      let failures = Fuzz.Campaign.failed t in
      let skips = List.length (Fuzz.Campaign.skipped t) in
      Printf.printf "fuzz: seed %d, %d programs, %d divergent%s\n" seed iters
        (List.length failures)
        (if skips = 0 then ""
         else Printf.sprintf ", %d skipped (step budget)" skips);
      List.iter
        (fun (e : Fuzz.Campaign.entry) ->
          bad := true;
          match e.Fuzz.Campaign.e_status with
          | Fuzz.Campaign.Error msg ->
              Printf.printf "program %d: ERROR %s\n" e.Fuzz.Campaign.e_index msg
          | Fuzz.Campaign.Divergent d0 -> begin
              Printf.printf "program %d: DIVERGENT (%s) %s\n"
                e.Fuzz.Campaign.e_index d0.Fuzz.Oracle.d_oracle
                d0.Fuzz.Oracle.d_detail;
              (* shrink to a minimal reproducer *)
              match
                Fuzz.Campaign.shrink_entry ~checks ~seed
                  e.Fuzz.Campaign.e_index
              with
              | Some (small, inputs, d) ->
                  let src = Fuzz.Printer.program small in
                  (match corpus with
                  | Some dir when Sys.file_exists dir ->
                      let path =
                        Fuzz.Campaign.save_repro ~dir ~seed
                          ~index:e.Fuzz.Campaign.e_index ~d ~inputs src
                      in
                      Printf.printf "  reproducer written to %s\n" path
                  | _ -> ());
                  print_string
                    (String.concat "\n"
                       (List.map (fun l -> "  | " ^ l)
                          (String.split_on_char '\n' src)));
                  print_newline ()
              | None ->
                  Printf.printf "  (divergence did not reproduce on re-run)\n"
            end
          | Fuzz.Campaign.Passed | Fuzz.Campaign.Skipped _ -> ())
        failures
    end;
    if !bad then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded random MiniC programs and \
          check the reference evaluator, the VEX machine and the \
          instrumented analysis agree bit-for-bit; shrink and record any \
          counterexample. With --soundiness, check Rewrite.Improve results \
          on resampled point contexts instead.")
    Term.(
      const run $ seed_arg $ iters_arg $ jobs_arg $ timeout_arg $ corpus_arg
      $ quiet_arg $ consistency_arg $ tiered_consistency_arg $ soundiness_arg)

(* ---------- campaign (long-running resumable fuzz) ---------- *)

let campaign_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let iters_arg =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~docv:"N" ~doc:"Stream length (total tasks).")
  in
  let state_arg =
    Arg.(
      value & opt string "campaign.state.json"
      & info [ "state" ] ~docv:"FILE"
          ~doc:
            "Checkpoint file. If it exists and matches this campaign's \
             config fingerprint, the campaign resumes from the recorded \
             stream index; a mismatched file is refused.")
  in
  let findings_arg =
    Arg.(
      value & opt string "findings.jsonl"
      & info [ "findings" ] ~docv:"FILE"
          ~doc:
            "Append-only findings feed (JSON lines). Serve it live with \
             $(b,fpgrind serve --findings) $(docv).")
  in
  let soundiness_every_arg =
    Arg.(
      value & opt int 0
      & info [ "soundiness-every" ] ~docv:"N"
          ~doc:
            "Make every Nth stream index a soundiness check over the \
             benchmark suite (0 disables the soundiness slice).")
  in
  let regimes_every_arg =
    Arg.(
      value & opt int 0
      & info [ "regimes-every" ] ~docv:"N"
          ~doc:
            "Make every Nth stream index a regime-inference task over the \
             straight-line suite; fixes and unsound candidates land in the \
             findings feed with a regime_candidate verdict (0 disables the \
             regime slice; soundiness wins when both slices hit one index).")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 50
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint the state file every N completed tasks.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Skip corpus minimization of divergent programs.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress lines.")
  in
  let run seed iters state_path findings_path soundiness_every regimes_every
      checkpoint_every no_shrink quiet =
    let cfg =
      {
        (Campaign.Runner.default_config ~state_path ~findings_path) with
        Campaign.Runner.cfg_seed = seed;
        cfg_iters = iters;
        cfg_soundness_every = soundiness_every;
        cfg_regimes_every = regimes_every;
        cfg_checkpoint_every = max 1 checkpoint_every;
        cfg_shrink = not no_shrink;
      }
    in
    (* SIGINT/SIGTERM request a stop; the loop finishes the task in
       flight, appends its findings, checkpoints, and exits 3 so a
       supervisor can tell "interrupted, resume me" from "done". *)
    let stop = ref false in
    let on_signal _ = stop := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    let on_progress st =
      if not quiet then
        Printf.eprintf "%s\n%!" (Campaign.Runner.summary_line st)
    in
    try
      match
        Campaign.Runner.run ~should_stop:(fun () -> !stop) ~on_progress cfg
      with
      | Campaign.Runner.Completed st ->
          Printf.printf "%s\n" (Campaign.Runner.summary_line st);
          0
      | Campaign.Runner.Interrupted st ->
          Printf.printf "interrupted; %s\n" (Campaign.Runner.summary_line st);
          3
    with Campaign.Runner.Resume_mismatch msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a long-running, resumable fuzz campaign: differential + \
          engine-consistency oracles over seeded random programs, an \
          optional soundiness slice over the benchmark suite, periodic \
          checkpoints, and an append-only findings JSONL feed. SIGINT or \
          SIGTERM checkpoints and exits 3; rerunning with the same flags \
          resumes and the merged findings feed is byte-identical to an \
          uninterrupted run.")
    Term.(
      const run $ seed_arg $ iters_arg $ state_arg $ findings_arg
      $ soundiness_every_arg $ regimes_every_arg $ checkpoint_every_arg
      $ no_shrink_arg $ quiet_arg)

(* ---------- serve (the network analysis service) ---------- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on; 0 picks an ephemeral port (printed).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains for analysis jobs.")
  in
  let queue_arg =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded job-queue depth. When $(docv) jobs are already \
             waiting, new work is refused with 503 and a Retry-After \
             hint instead of queueing unboundedly.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Default per-request analysis deadline.")
  in
  let max_body_arg =
    Arg.(
      value & opt int Serve.Http.default_max_body
      & info [ "max-body" ] ~docv:"BYTES"
          ~doc:"Largest accepted request body; larger submissions get 413.")
  in
  let store_arg =
    Arg.(
      value & opt (some string) None
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "JSONL results store: warm the result cache from $(docv) at \
             startup and flush all outcomes to it on shutdown.")
  in
  let findings_arg =
    Arg.(
      value & opt (some string) None
      & info [ "findings" ] ~docv:"FILE"
          ~doc:
            "Campaign findings JSONL feed to serve verbatim on GET \
             /findings (typically the --findings file of a running \
             $(b,fpgrind campaign)). Also populates the \
             fpgrind_campaign_* metrics.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-request log lines.")
  in
  let shards_arg =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Pre-fork $(docv) worker processes sharing one listening \
             socket. Each shard is a full server (own pool, cache, \
             metrics); a crashed or OOM-killed shard is respawned by the \
             parent and results are shared through an advisory-locked \
             JSONL cache (the --store file). 0 runs the classic \
             single-process server.")
  in
  let keep_alive_arg =
    Arg.(
      value & opt int 100
      & info [ "keep-alive-requests" ] ~docv:"N"
          ~doc:
            "Requests served per connection before it is closed \
             (Connection: close on the last response).")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Tear down a keep-alive connection idle for $(docv).")
  in
  let rate_limit_arg =
    Arg.(
      value & opt (some float) None
      & info [ "rate-limit" ] ~docv:"RPS"
          ~doc:
            "Per-client token-bucket rate limit on POST requests, in \
             requests/second; over-limit clients get 503 with Retry-After.")
  in
  let rate_burst_arg =
    Arg.(
      value & opt int 16
      & info [ "rate-burst" ] ~docv:"N"
          ~doc:"Token-bucket capacity for --rate-limit.")
  in
  let run port host jobs queue timeout max_body store_path findings_path quiet
      shards keep_alive_requests idle_timeout rate_limit rate_burst =
    try
      let cfg =
        {
          Serve.Server.port;
          host;
          jobs;
          queue;
          timeout;
          max_body;
          store_path;
          findings_path;
          quiet;
          keep_alive_requests;
          idle_timeout;
          rate_limit;
          rate_burst;
          shared_cache_path = None;
          shard_status_path = None;
          listen_fd = None;
        }
      in
      if shards > 0 then begin
        (* Shard mode: workers publish every fresh result to the shared
           cache file incrementally, which *is* the durable store —
           per-worker truncate-and-save flushes would clobber each other,
           so the workers run with store_path = None. *)
        let status_path =
          match store_path with
          | Some p -> p ^ ".status.json"
          | None -> Filename.temp_file "fpgrind-shard-status" ".json"
        in
        let worker_cfg =
          {
            cfg with
            Serve.Server.store_path = None;
            shared_cache_path = store_path;
          }
        in
        let shard_cfg =
          {
            (Shard.default_config ~serve:worker_cfg ~status_path) with
            Shard.sh_shards = shards;
          }
        in
        Shard.run
          ~on_listen:(fun bound ->
            Printf.printf
              "fpgrind serve: listening on http://%s:%d (shards=%d jobs=%d \
               queue=%d)\n%!"
              host bound shards jobs queue)
          shard_cfg
      end
      else begin
        let srv = Serve.Server.create cfg in
        (* graceful shutdown: stop accepting, drain in-flight and queued
           jobs, flush the store, then exit 0 *)
        let on_signal _ = Serve.Server.stop srv in
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        (* the pipe is handled inline; a dying client must not kill us *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        Printf.printf
          "fpgrind serve: listening on http://%s:%d (jobs=%d queue=%d)\n%!"
          host (Serve.Server.port srv) jobs queue;
        Serve.Server.run srv;
        0
      end
    with Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "error: %s: %s\n" fn (Unix.error_message e);
      1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the HTTP analysis service: keep-alive HTTP/1.1 with POST \
          /analyze and /fuzz behind a bounded queue with 503 backpressure, \
          optional pre-forked shards (--shards) with crash respawn and a \
          shared result cache, per-client rate limiting, GET /healthz, GET \
          /findings for a campaign feed, and GET /metrics in Prometheus \
          text format.")
    Term.(
      const run $ port_arg $ host_arg $ jobs_arg $ queue_arg $ timeout_arg
      $ max_body_arg $ store_arg $ findings_arg $ quiet_arg $ shards_arg
      $ keep_alive_arg $ idle_timeout_arg $ rate_limit_arg $ rate_burst_arg)

(* ---------- client (talk to a running fpgrind serve) ---------- *)

let client_cmd =
  let action_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("analyze", `Analyze); ("sanitize", `Sanitize);
                  ("fuzz", `Fuzz); ("health", `Health); ("metrics", `Metrics);
                  ("findings", `Findings);
                ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:"One of analyze, sanitize, fuzz, health, metrics, findings.")
  in
  let target_arg =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:
            "For analyze: a MiniC (.mc) or FPCore (.fpcore) source file, \
             or bench:NAME for a suite benchmark.")
  in
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let match_arg =
    Arg.(
      value & opt (some string) None
      & info [ "match" ] ~docv:"FILE"
          ~doc:
            "After an analyze request, assert the response equals the \
             record with the same benchmark name in the JSONL store \
             $(docv) on every field except wall_s; exit nonzero on \
             mismatch.")
  in
  let iters_arg =
    Arg.(
      value & opt int 100
      & info [ "iters" ] ~docv:"N" ~doc:"Fuzz campaign length.")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 42 & info [ "fuzz-seed" ] ~docv:"N" ~doc:"Fuzz seed.")
  in
  let client_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-request analysis deadline.")
  in
  let client_engine_arg =
    Arg.(
      value & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Analysis engine for the analyze action: $(b,full), \
             $(b,sanitize) or $(b,tiered). Sent to the server as the \
             $(b,engine) query parameter.")
  in
  let client_regimes_arg =
    Arg.(
      value & flag
      & info [ "regimes" ]
          ~doc:
            "For analyze on a bench:NAME target: ask the server to run \
             regime inference and annotate the record with the branch \
             structure (sent as the $(b,regimes=1) query parameter).")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Send the request $(docv) times over a single keep-alive \
             connection; only the last response is printed (and compared \
             by --match). Useful for warming the server cache and for \
             eyeballing keep-alive behaviour.")
  in
  (* A cached record is by construction a copy of an ok record, so the
     comparison normalises "cached" to "ok"; everything else but the
     wall-time is compared strictly. *)
  let strip_wall (j : Json.t) : Json.t =
    match j with
    | Json.Obj kvs ->
        Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if k = "wall_s" then None
               else if k = "status" && v = Json.Str "cached" then
                 Some (k, Json.Str "ok")
               else Some (k, v))
             kvs)
    | j -> j
  in
  let run action target port host inputs iterations seed precision threshold
      match_store iters fuzz_seed timeout engine regimes repeat =
    let enc = Serve.Http.percent_encode in
    let repeat = max 1 repeat in
    (* all requests of one invocation share one keep-alive connection;
       the connection is opened lazily so argument errors never dial *)
    let conn = lazy (Serve.Client.connect ~host ~port ()) in
    let send ~meth ~path ?body () =
      let c = Lazy.force conn in
      let r = ref (Serve.Client.request_conn c ~meth ~path ?body ()) in
      for _ = 2 to repeat do
        r := Serve.Client.request_conn c ~meth ~path ?body ()
      done;
      !r
    in
    let finish code =
      if Lazy.is_val conn then Serve.Client.close (Lazy.force conn);
      code
    in
    try
      (match engine with
      | Some e when Core.Config.engine_of_name e = None ->
          Printf.eprintf
            "error: unknown engine %S (expected full, sanitize or tiered)\n" e;
          raise Exit
      | _ -> ());
      finish
      @@
      match action with
      | `Health ->
          let r = send ~meth:"GET" ~path:"/healthz" () in
          print_string r.Serve.Client.c_body;
          if r.Serve.Client.c_status / 100 = 2 then 0 else 1
      | `Metrics ->
          let r = send ~meth:"GET" ~path:"/metrics" () in
          print_string r.Serve.Client.c_body;
          if r.Serve.Client.c_status / 100 = 2 then 0 else 1
      | `Findings ->
          let r = send ~meth:"GET" ~path:"/findings" () in
          print_string r.Serve.Client.c_body;
          if r.Serve.Client.c_status / 100 = 2 then 0 else 1
      | `Fuzz ->
          let path =
            Printf.sprintf "/fuzz?seed=%d&iters=%d%s" fuzz_seed iters
              (match timeout with
              | None -> ""
              | Some s -> "&timeout=" ^ enc (Printf.sprintf "%g" s))
          in
          let r = send ~meth:"POST" ~path () in
          print_string r.Serve.Client.c_body;
          if r.Serve.Client.c_status / 100 = 2 then 0 else 1
      | (`Analyze | `Sanitize) as action -> (
          let endpoint =
            match action with `Analyze -> "/analyze" | `Sanitize -> "/sanitize"
          in
          let target =
            match target with
            | Some t -> t
            | None ->
                Printf.eprintf "error: client %s needs a PROGRAM argument\n"
                  (match action with
                  | `Analyze -> "analyze"
                  | `Sanitize -> "sanitize");
                raise Exit
          in
          let body =
            if String.length target > 6 && String.sub target 0 6 = "bench:"
            then target
            else read_file target
          in
          let path =
            Printf.sprintf
              "%s?iterations=%d&seed=%d&precision=%d&threshold=%s%s%s"
              endpoint iterations seed precision
              (enc (Printf.sprintf "%.17g" threshold))
              (match inputs with
              | [] -> ""
              | fs ->
                  "&inputs="
                  ^ enc (String.concat "," (List.map (Printf.sprintf "%h") fs)))
              (match timeout with
              | None -> ""
              | Some s -> "&timeout=" ^ enc (Printf.sprintf "%g" s))
          in
          let path =
            match engine with
            | Some e -> path ^ "&engine=" ^ enc e
            | None -> path
          in
          let path = if regimes then path ^ "&regimes=1" else path in
          let r = send ~meth:"POST" ~path ~body () in
          print_string r.Serve.Client.c_body;
          if r.Serve.Client.c_status / 100 <> 2 then 1
          else
            match match_store with
            | None -> 0
            | Some store_path ->
                let got =
                  strip_wall
                    (Json.of_string (String.trim r.Serve.Client.c_body))
                in
                let resp_json =
                  Json.of_string (String.trim r.Serve.Client.c_body)
                in
                let name = Json.get_str "name" resp_json in
                let resp_engine =
                  match Json.member "engine" resp_json with
                  | Some (Json.Str s) -> s
                  | _ -> "full"
                in
                let expected =
                  match
                    List.find_opt
                      (fun (o : Fleet.outcome) -> o.Fleet.o_name = name)
                      (Fleet.Store.load store_path)
                  with
                  | Some o ->
                      (* a full-engine record says nothing about the
                         sanitizer (and vice versa): comparing them would
                         only ever report a meaningless mismatch *)
                      if o.Fleet.o_engine <> resp_engine then
                        failwith
                          (Printf.sprintf
                             "refusing to --match across engines: the \
                              response for %s came from the %s engine but \
                              the record in %s came from the %s engine"
                             name resp_engine store_path o.Fleet.o_engine);
                      strip_wall (Fleet.Store.outcome_to_json o)
                  | None ->
                      failwith
                        (Printf.sprintf "no record named %s in %s" name
                           store_path)
                in
                if Json.to_string got = Json.to_string expected
                then begin
                  Printf.eprintf
                    "match: response equals the stored record for %s (modulo \
                     wall_s)\n"
                    name;
                  0
                end
                else begin
                  Printf.eprintf
                    "MISMATCH for %s\n  server: %s\n  store:  %s\n" name
                    (Json.to_string got)
                    (Json.to_string expected);
                  1
                end)
    with
    | Exit -> 1
    | Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "error: %s: %s\n" fn (Unix.error_message e);
        1
    | Sys_error msg | Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Json.Parse_error msg | Serve.Http.Error (_, msg) ->
        Printf.eprintf "error: %s\n" msg;
        1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running fpgrind serve: submit an analysis or fuzz \
          campaign, or fetch /healthz or /metrics.")
    Term.(
      const run $ action_arg $ target_arg $ port_arg $ host_arg $ inputs_arg
      $ iterations_arg $ Arg.(
        value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input sampling seed.")
      $ precision_arg $ threshold_arg $ match_arg $ iters_arg $ fuzz_seed_arg
      $ client_timeout_arg $ client_engine_arg $ client_regimes_arg
      $ repeat_arg)

let loadgen_cmd =
  let url_arg =
    Arg.(
      value & opt string "http://127.0.0.1:8080"
      & info [ "url" ] ~docv:"URL"
          ~doc:"Server base URL, $(b,http://HOST:PORT).")
  in
  let rate_arg =
    Arg.(
      value & opt float 50.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop arrival rate in requests/second. Request i is due \
             at start + i/RATE regardless of earlier completions, and its \
             latency is charged from that due time.")
  in
  let duration_arg =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Seconds of offered load.")
  in
  let lg_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Request-stream seed; the body of request i is a pure \
             function of (seed, i, mix), so the same seed offers the \
             same bodies regardless of timing or concurrency.")
  in
  let mix_arg =
    Arg.(
      value & opt string "bench=1,minic=1"
      & info [ "mix" ] ~docv:"SPEC"
          ~doc:
            "Weighted request mix, e.g. $(b,bench=3,minic=1): \
             $(b,bench) requests repeat suite benchmarks (cache-friendly), \
             $(b,minic) requests carry fresh generated programs \
             (cache-cold).")
  in
  let conns_arg =
    Arg.(
      value & opt int 4
      & info [ "conns" ] ~docv:"N"
          ~doc:"Concurrent keep-alive connections carrying the stream.")
  in
  let lg_engine_arg =
    Arg.(
      value & opt string "sanitize"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Analysis engine query parameter sent with every request.")
  in
  let lg_iterations_arg =
    Arg.(
      value & opt int 8
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Sampled inputs per analysis request.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the report JSON to $(docv).")
  in
  (* http://HOST:PORT — no path/userinfo, this is a bench driver not a
     general HTTP client *)
  let parse_url (u : string) : (string * int, string) result =
    let prefix = "http://" in
    let plen = String.length prefix in
    if String.length u <= plen || String.sub u 0 plen <> prefix then
      Error (Printf.sprintf "expected http://HOST:PORT, got %s" u)
    else
      let rest = String.sub u plen (String.length u - plen) in
      let rest =
        if String.length rest > 0 && rest.[String.length rest - 1] = '/' then
          String.sub rest 0 (String.length rest - 1)
        else rest
      in
      match String.rindex_opt rest ':' with
      | None -> Ok (rest, 80)
      | Some i -> (
          let host = String.sub rest 0 i in
          let port = String.sub rest (i + 1) (String.length rest - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && host <> "" -> Ok (host, p)
          | _ -> Error (Printf.sprintf "bad port in %s" u))
  in
  let run url rate duration seed mix conns engine iterations json_path =
    try
      let host, port =
        match parse_url url with Ok hp -> hp | Error msg -> failwith msg
      in
      if rate <= 0.0 then failwith "loadgen: --rate must be positive";
      if duration <= 0.0 then failwith "loadgen: --duration must be positive";
      let cfg =
        {
          Loadgen.lg_host = host;
          lg_port = port;
          lg_rate = rate;
          lg_duration = duration;
          lg_conns = max 1 conns;
          lg_seed = seed;
          lg_mix = Loadgen.mix_of_string mix;
          lg_engine = engine;
          lg_iterations = max 1 iterations;
        }
      in
      let report = Loadgen.run cfg in
      let j = Json.to_string (Loadgen.to_json cfg report) in
      print_endline j;
      (match json_path with
      | None -> ()
      | Some p ->
          let oc = open_out p in
          output_string oc j;
          output_char oc '\n';
          close_out oc);
      (* 503s are the server keeping its latency promise under overload;
         other 5xx (or transport failures) mean it broke *)
      if report.Loadgen.r_errors_5xx > 0 || report.Loadgen.r_conn_errors > 0
      then 1
      else 0
    with
    | Failure msg | Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "error: %s: %s\n" fn (Unix.error_message e);
        1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Offer seeded open-loop load to a running fpgrind serve and \
          report p50/p90/p99 latency, throughput and error rates as JSON. \
          The request stream is a pure function of --seed and --mix; \
          latency is measured from each request's scheduled arrival time, \
          so server stalls show up as queueing delay instead of silently \
          slowing the generator (no coordinated omission).")
    Term.(
      const run $ url_arg $ rate_arg $ duration_arg $ lg_seed_arg $ mix_arg
      $ conns_arg $ lg_engine_arg $ lg_iterations_arg $ json_arg)

let () =
  let doc = "find root causes of floating-point error (Herbgrind reproduction)" in
  let info = Cmd.info "fpgrind" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            analyze_cmd; sanitize_cmd; run_cmd; suite_cmd; validate_cmd;
            list_cmd; improve_cmd; fuzz_cmd; campaign_cmd; serve_cmd;
            client_cmd; loadgen_cmd;
          ]))
