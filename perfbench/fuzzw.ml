(* The fuzz-sanitize workload: generated MiniC programs under the
   sanitizer engine. Every program is new, so the MiniC front end and
   cold compile-cache misses carry real weight and no Bigfloat work is
   done — the workload on which a change that speeds up the warm suites
   by moving work into compilation shows. Set-up covers the seed-42
   slice test/data pins (indices 0-499); each timed pass is 1,000
   programs of a fresh campaign seed, generated before its clock starts. *)

let max_steps = 2_000_000 (* test/test_compile.ml's budget for this slice *)
let cfg = { Core.Config.default with Core.Config.engine = Core.Config.Sanitize }

type input = { name : string; src : string; inputs : float array }

let generate ~seed n : input array =
  Array.init n (fun i ->
      let ast, inputs = Fuzz.Campaign.generate ~seed i in
      { name = Printf.sprintf "fuzz-%04d" i; src = Fuzz.Printer.program ast; inputs })

let outcome x ~wall payload =
  {
    Fleet.o_name = x.name;
    o_group = "fuzz";
    o_key = "";
    o_engine = "sanitize";
    o_status = Fleet.Done;
    o_wall_s = wall;
    o_payload = Some payload;
  }

let run x : Fleet.outcome =
  let o =
    Fleet.exec_one
      {
        Fleet.sp_name = x.name;
        sp_group = "fuzz";
        sp_key = "";
        sp_engine = "sanitize";
        sp_work =
          (fun ~tick:_ ->
            let prog = Minic.compile ~file:(x.name ^ ".mc") x.src in
            Fleet.san_payload_for ~name:x.name ~group:"fuzz"
              (Sanitize.Sexec.run ~max_steps ~inputs:x.inputs cfg prog));
      }
  in
  ignore (Json.to_string (Fleet.Store.outcome_to_json o));
  o

let traced sp x : Fleet.outcome =
  sp.Spans.job <- x.name;
  let span name f = Spans.span sp name f in
  let t0 = Stats.now () in
  let prog =
    span "minic.compile" (fun () -> Minic.compile ~file:(x.name ^ ".mc") x.src)
  in
  ignore
    (span "vex.compile" (fun () ->
         Vex.Compile.get ~type_inference:cfg.Core.Config.type_inference prog));
  let r =
    span "sanitize.exec" (fun () ->
        Sanitize.Sexec.run ~max_steps ~inputs:x.inputs cfg prog)
  in
  Spans.count sp "sanitize.shadow_ops"
    (float_of_int r.Sanitize.Sexec.sx_stats.Sanitize.Sexec.shadow_ops);
  (* [san_payload_for] builds the report itself; a side call times that part *)
  let p =
    span "fleet.payload" (fun () -> Fleet.san_payload_for ~name:x.name ~group:"fuzz" r)
  in
  ignore
    (Spans.span ~side:true sp "sanitize.report" (fun () ->
         Sanitize.Report.build r));
  let o = outcome x ~wall:(Stats.now () -. t0) p in
  let line =
    span "json.encode" (fun () -> Json.to_string (Fleet.Store.outcome_to_json o))
  in
  Spans.count sp "json.bytes" (float_of_int (String.length line));
  o

let workload : (input, Fleet.outcome) Batch.t =
  {
    Batch.pinned = (fun ~quick -> generate ~seed:42 (if quick then 50 else 500));
    fresh = (fun ~quick ~seed -> generate ~seed (if quick then 50 else 1000));
    run;
    traced;
    canon = Pins.canon;
    failed = (fun o -> o.Fleet.o_status <> Fleet.Done);
    check =
      (fun o records ->
        Pins.check_fuzz
          ~file:(Filename.concat o.Opts.pins "compile_fuzz_seed42.txt")
          records);
  }
