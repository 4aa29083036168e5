(* The FPBench suite workloads: every vendored benchmark under the full
   engine, and the straight-line benchmarks under the tiered engine, at
   16 iterations — the configuration test/data pins at seed 1.

   The tiered workload leaves out the looping benchmarks because their
   cost is bimodal in the inputs: pendulum escalates on about one seed
   in ten and then costs 1.9 s instead of 0.07 s, so how many of those a
   ten-second run happens to draw would decide its throughput. *)

let iterations = 16
let max_steps = 200_000_000 (* Fleet.bench_spec's budget *)

type input = { job : Fpcore.Suite.job; cfg : Core.Config.t }

(* The production path: the job `fpgrind suite` builds, run and encoded
   the way `suite --json` stores it. *)
let run { job; cfg } : Fleet.outcome =
  let o = Fleet.exec_one (Fleet.bench_spec ~cfg job) in
  ignore (Json.to_string (Fleet.Store.outcome_to_json o));
  o

(* The same job, calling each layer's public functions in the order
   [Fleet.bench_spec] does, one span each. *)
let traced sp { job; cfg } : Fleet.outcome =
  let b = job.Fpcore.Suite.job_bench in
  let name = b.Fpcore.Suite.name and group = Fleet.group_name b in
  let n = job.Fpcore.Suite.job_iterations in
  sp.Spans.job <- name;
  let key = Fleet.job_key ~cfg job in
  let t0 = Stats.now () in
  let span name f = Spans.span sp name f in
  let core = span "fpcore.parse" (fun () -> Fpcore.Suite.core_of b) in
  let inputs =
    span "fpcore.sample" (fun () ->
        Fpcore.Suite.inputs_for ~seed:job.Fpcore.Suite.job_seed b ~n)
  in
  let prog =
    span "fpcore.compile" (fun () ->
        Fpcore.Compile.compile ~n_inputs:n ~name core)
  in
  ignore
    (span "vex.compile" (fun () ->
         Vex.Compile.get ~type_inference:cfg.Core.Config.type_inference prog));
  let nodes0 = Core.Trace.created_in_domain () in
  let mat0 = Core.Trace.materialized_in_domain () in
  let payload =
    match cfg.Core.Config.engine with
    | Core.Config.Tiered ->
        let r =
          span "tiered.analyze" (fun () -> Tiered.analyze ~cfg ~max_steps ~inputs prog)
        in
        ignore
          (Spans.span ~side:true sp "tiered.pass1" (fun () ->
               Sanitize.Sexec.run ~max_steps ~inputs cfg prog));
        Spans.count sp "tiered.escalations"
          (if Tiered.escalated r then 1.0 else 0.0);
        Spans.count sp "tiered.slice_stmts" (float_of_int r.Tiered.t_slice_stmts);
        span "fleet.payload" (fun () ->
            Fleet.tiered_payload_for ~name ~group ~nodes0 ~mat0 r)
    | Core.Config.Sanitize -> invalid_arg "Suites.traced: no sanitize suite"
    | Core.Config.Full ->
        let raw =
          span "core.exec" (fun () -> Core.Exec.run ~max_steps ~inputs cfg prog)
        in
        let report = span "core.report" (fun () -> Core.Report.build ~cfg raw) in
        let st = raw.Core.Exec.r_stats in
        Spans.count sp "core.fp_ops" (float_of_int st.Core.Exec.fp_ops);
        Spans.count sp "core.stmts_executed"
          (float_of_int st.Core.Exec.stmts_executed);
        Spans.count sp "core.traces_materialized"
          (float_of_int (Core.Trace.materialized_in_domain () - mat0));
        span "fleet.payload" (fun () ->
            Fleet.payload_for ~name ~group ~nodes0 ~mat0
              { Core.Analysis.raw; report; cfg })
  in
  let o =
    {
      Fleet.o_name = name;
      o_group = group;
      o_key = key;
      o_engine = Core.Config.engine_name cfg.Core.Config.engine;
      o_status = Fleet.Done;
      o_wall_s = Stats.now () -. t0;
      o_payload = Some payload;
    }
  in
  let line =
    span "json.encode" (fun () -> Json.to_string (Fleet.Store.outcome_to_json o))
  in
  Spans.count sp "json.bytes" (float_of_int (String.length line));
  o

let workload ~engine ~loops ~pin : (input, Fleet.outcome) Batch.t =
  let cfg = { Core.Config.default with Core.Config.engine } in
  let jobs ~quick ~seed =
    let group = if loops && not quick then None else Some `Straight in
    Fpcore.Suite.enumerate ?group ~iterations ~seed ()
    |> List.map (fun job -> { job; cfg })
    |> Array.of_list
  in
  {
    Batch.pinned = (fun ~quick -> jobs ~quick ~seed:1);
    fresh = jobs;
    run;
    traced;
    canon = Pins.canon;
    failed = (fun o -> o.Fleet.o_status <> Fleet.Done);
    check =
      (fun o records ->
        Pins.check_suite ~file:(Filename.concat o.Opts.pins pin) records);
  }

let full =
  workload ~engine:Core.Config.Full ~loops:true ~pin:"compile_suite_full.jsonl"

let tiered =
  workload ~engine:Core.Config.Tiered ~loops:false ~pin:"compile_suite_tiered.jsonl"
