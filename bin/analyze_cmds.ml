(* analyze, sanitize, run: one program under an analysis engine, or
   natively. *)

open Cmdliner

let max_steps = 1_000_000_000

let run_sanitizer ~cfg ~fatal ~all_checks ~inputs prog : int =
  match Sanitize.Sexec.run ~max_steps ~inputs ~fatal cfg prog with
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

let run_tiered ~cfg ~inputs prog : int =
  let r = Tiered.analyze ~cfg ~max_steps ~inputs prog in
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

(* the section 8.2 ablation switches on top of the shared config *)
let analyze_config =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let depth =
    Arg.(
      value & opt int Core.Config.default.Core.Config.equiv_depth
      & info [ "equiv-depth" ] ~docv:"D"
          ~doc:"Depth of exact value-equivalence tracking (paper default 5).")
  in
  let make cfg equiv_depth no_reals no_exprs no_ti classic all_spots =
    {
      cfg with
      Core.Config.equiv_depth;
      enable_reals = not no_reals;
      enable_expressions = not no_exprs;
      type_inference = not no_ti;
      classic_antiunify = classic;
      report_all_spots = all_spots;
    }
  in
  Term.(
    const make $ Common.config $ depth
    $ flag "no-reals" "Disable the shadow real execution."
    $ flag "no-expressions" "Disable expression building."
    $ flag "no-type-inference" "Disable superblock type inference."
    $ flag "classic-antiunify"
        "Use classical most-specific generalization (no internal pruning)."
    $ flag "all-spots" "Report spots with no observed error too.")

let analyze =
  let run load cfg () =
    let prog, inputs = load () in
    match cfg.Core.Config.engine with
    | Core.Config.Sanitize ->
        run_sanitizer ~cfg ~fatal:false
          ~all_checks:cfg.Core.Config.report_all_spots ~inputs prog
    | Core.Config.Tiered -> run_tiered ~cfg ~inputs prog
    | Core.Config.Full ->
        let r = Core.Analysis.analyze ~cfg ~max_steps ~inputs prog in
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
  in
  Common.cmd "analyze"
    ~doc:
      "Run a program under the full Herbgrind analysis (or, with --engine \
       sanitize / --engine tiered, the NSan-style sanitizer or the \
       two-pass tiered engine) and print the report."
    Term.(const run $ Common.program $ analyze_config)

(* ---------- sanitize (the NSan-style dual-precision engine) ---------- *)

let sanitize =
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
  let engine_arg =
    Common.engine_arg
      ~engines:Core.Config.[ Sanitize; Tiered ]
      ~default:Core.Config.Sanitize
      ~doc:
        "$(b,sanitize) (the default) runs the dual-precision sanitizer \
         alone; $(b,tiered) escalates its findings to the full analysis."
  in
  let run load error_threshold fatal all_checks engine () =
    let cfg = { Core.Config.default with Core.Config.error_threshold; engine } in
    let prog, inputs = load () in
    match engine with
    | Core.Config.Tiered ->
        if fatal || all_checks then
          failwith "--fatal and --all-checks apply to the sanitize engine only";
        run_tiered ~cfg ~inputs prog
    | Core.Config.Sanitize | Core.Config.Full ->
        run_sanitizer ~cfg ~fatal ~all_checks ~inputs prog
  in
  Common.cmd "sanitize"
    ~doc:
      "Run a program under the NSan-style dual-precision shadow sanitizer: \
       every float is shadowed by a double-double, and checks fire at \
       stores, float-to-int casts, flipped comparisons and outputs."
    Term.(
      const run $ Common.program $ Common.threshold_arg $ fatal_arg
      $ all_checks_arg $ engine_arg)

(* ---------- run (uninstrumented) ---------- *)

let run =
  let run load () =
    let prog, inputs = load () in
    let st = Vex.Machine.run ~max_steps ~inputs prog in
    List.iter
      (fun (o : Vex.Machine.output) ->
        Printf.printf "%s\n" (Vex.Value.to_string o.Vex.Machine.value))
      (Vex.Machine.outputs st);
    0
  in
  Common.cmd "run"
    ~doc:"Run a program natively (no instrumentation) and print its outputs."
    Term.(const run $ Common.program)
