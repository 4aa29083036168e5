(* The batch-workload runner shared by the suite, fuzz and regime
   workloads.

   A run sets up [setup_reps] times at the pinned seed: every rep
   but the last in a forked child, the last in this process, all of them
   equally cold. Each rep's records are checked against the pins, and
   [setup_s] is the median rep's wall time. Timed passes follow, each on
   fresh inputs ([Opts.pass_seed]) in a freshly spawned domain — the
   libm memo in [Vex.Eval] is per domain and keyed on exact arguments, so
   a pass that repeated inputs would time memo hits instead of shadow
   arithmetic. Passes run until [seconds] is as close as whole passes
   allow.

   A traced run replaces this process's set-up rep and the timed passes
   with traced ones: the same work, one span per public call into a
   layer. Its first pass runs at the pinned seed and must reproduce the
   pins — tracing changes no record — and its time against the untraced
   children's gives the tracing overhead. Counts come from that pass
   alone, so they repeat exactly from run to run. *)

type ('i, 'r) t = {
  pinned : quick:bool -> 'i array;  (* set-up inputs, at the pinned seed *)
  fresh : quick:bool -> seed:int -> 'i array;  (* one timed pass's inputs *)
  run : 'i -> 'r;  (* one job through the production path *)
  traced : Spans.t -> 'i -> 'r;  (* the same job, one span per layer call *)
  canon : 'r -> string;  (* the job's record, nothing timing-dependent *)
  failed : 'r -> bool;
  check : Opts.t -> string array -> string list;  (* set-up records vs pins *)
}

let setup_reps = 3

type pass = {
  wall : float;  (* seconds, side spans excluded *)
  rss_mb : float;  (* peak resident set while the pass ran; 0 when traced *)
  latency : float array;  (* per job, seconds; empty when traced *)
  records : string array;  (* kept for set-up passes only *)
  digest : string;  (* of the records *)
  jobs : int;
  n_failed : int;
}

let finish_pass w ~wall ~rss_mb ~latency results : pass =
  let records = Array.map w.canon results in
  {
    wall;
    rss_mb;
    latency;
    records;
    digest = Pins.digest_lines records;
    jobs = Array.length results;
    n_failed =
      Array.fold_left (fun n r -> if w.failed r then n + 1 else n) 0 results;
  }

let in_fresh_domain f = Domain.join (Domain.spawn f)

(* [f ()] and the peak resident set while it ran, sampled every 10 ms by
   a thread of this domain while [f] runs in a fresh one. Per-pass peaks
   keep one pass's garbage-collector timing from deciding the run's
   figure, as the process-wide high-water mark would. *)
let with_peak_rss f =
  let peak = ref (Stats.status_mb "VmRSS") and stop = Atomic.make false in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          peak := Float.max !peak (Stats.status_mb "VmRSS");
          Thread.delay 0.01
        done)
      ()
  in
  let r = in_fresh_domain f in
  Atomic.set stop true;
  Thread.join sampler;
  (r, Float.max !peak (Stats.status_mb "VmRSS"))

let timed_pass w inputs : pass =
  Gc.compact ();
  let (wall, latency, results), rss_mb =
    with_peak_rss (fun () ->
        let latency = Array.make (Array.length inputs) 0.0 in
        let t0 = Stats.now () in
        let results =
          Array.mapi
            (fun i x ->
              let t = Stats.now () in
              let r = w.run x in
              latency.(i) <- Stats.now () -. t;
              r)
            inputs
        in
        (Stats.now () -. t0, latency, results))
  in
  finish_pass w ~wall ~rss_mb ~latency results

let traced_pass w sp ~pass inputs : pass =
  Gc.compact ();
  in_fresh_domain (fun () ->
      sp.Spans.pass <- pass;
      let side0 = sp.Spans.side_s in
      let t0 = Stats.now () in
      let results = Array.map (w.traced sp) inputs in
      let wall = Stats.now () -. t0 -. (sp.Spans.side_s -. side0) in
      finish_pass w ~wall ~rss_mb:0.0 ~latency:[||] results)

(* Passes 1, 2, ... until the elapsed time is as close to [seconds] as
   whole passes allow (at least one pass). *)
let passes_for ~seconds ~elapsed run_pass : pass list =
  let rec go k acc elapsed =
    let n = List.length acc in
    let mean = if n = 0 then 0.0 else elapsed /. float_of_int n in
    if n > 0 && elapsed +. (mean /. 2.0) >= seconds then List.rev acc
    else
      let p = run_pass k in
      go (k + 1) (p :: acc) (elapsed +. p.wall)
  in
  go 1 [] elapsed

let pass_note label (p : pass) =
  Printf.sprintf "%s jobs=%d wall_s=%.4f failed=%d digest=%s" label p.jobs
    p.wall p.n_failed p.digest

(* Per-layer shares of the traced passes' wall time, by span name, plus
   [other_pct] for the time no top-level layer span covers. *)
let layer_shares (sp : Spans.t) ~total_wall : (string * float) list =
  let pct s = 100.0 *. s /. total_wall in
  let selfs = Spans.self_times sp in
  let covered =
    List.fold_left
      (fun acc (_, s, side) -> if side then acc else acc +. s)
      0.0 selfs
  in
  List.map (fun (name, s, _) -> (name ^ "_pct", pct s)) selfs
  @ [ ("other_pct", pct (total_wall -. covered)) ]

let execute (w : ('i, 'r) t) (o : Opts.t) : Opts.result =
  let pinned = w.pinned ~quick:o.quick in
  let children =
    List.init (setup_reps - 1) (fun _ ->
        Child.run (fun () -> timed_pass w pinned))
  in
  let sp = Spans.create () in
  let compiled () =
    (Vex.Compile.blocks_compiled_total (), Vex.Compile.cache_hits_total ())
  in
  let blocks0, hits0 = compiled () in
  let own =
    if o.trace then traced_pass w sp ~pass:0 pinned else timed_pass w pinned
  in
  let blocks1, hits1 = compiled () in
  let pinned_counts = Hashtbl.copy sp.Spans.counts in
  let setup = children @ [ own ] in
  let setup_problems =
    w.check o own.records
    @ List.concat_map
        (fun (p : pass) ->
          (if p.records <> own.records then
             [ "set-up reps disagree: records differ between processes" ]
           else [])
          @
          if p.n_failed > 0 then
            [ Printf.sprintf "set-up pass: %d jobs failed" p.n_failed ]
          else [])
        setup
  in
  let run_pass k =
    let inputs = w.fresh ~quick:o.quick ~seed:(Opts.pass_seed o k) in
    let p = if o.trace then traced_pass w sp ~pass:k inputs else timed_pass w inputs in
    { p with records = [||] }
  in
  let passes =
    passes_for ~seconds:o.seconds
      ~elapsed:(if o.trace then own.wall else 0.0)
      run_pass
  in
  let all = setup @ passes in
  let attempted = List.fold_left (fun n p -> n + p.jobs) 0 all in
  let failed = List.fold_left (fun n p -> n + p.n_failed) 0 all in
  let timed_failed = List.fold_left (fun n p -> n + p.n_failed) 0 passes in
  let notes =
    List.mapi
      (fun i p -> pass_note (Printf.sprintf "setup rep %d, pinned seed:" (i + 1)) p)
      setup
    @ List.mapi
        (fun i p ->
          pass_note
            (Printf.sprintf "pass %d, seed %d:" (i + 1) (Opts.pass_seed o (i + 1)))
            p)
        passes
    @ (if o.trace then []
       else
         [ Stats.latency_note (Array.concat (List.map (fun p -> p.latency) passes)) ])
    @ [
        "records_digest "
        ^ Pins.digest_lines (Array.of_list (List.map (fun p -> p.digest) passes));
      ]
  in
  let problems =
    setup_problems
    @
    if timed_failed > 0 then
      [ Printf.sprintf "%d jobs failed in timed passes" timed_failed ]
    else []
  in
  let values =
    if o.trace then begin
      Spans.write sp (Opts.spans_file o);
      let traced = own :: passes in
      let total_wall = List.fold_left (fun a p -> a +. p.wall) 0.0 traced in
      let untraced =
        Stats.median (Array.of_list (List.map (fun p -> p.wall) children))
      in
      let blocks = float_of_int (blocks1 - blocks0) in
      let hits = float_of_int (hits1 - hits0) in
      layer_shares sp ~total_wall
      @ [
          ("trace_overhead_pct", 100.0 *. ((own.wall /. untraced) -. 1.0));
          ("vex.blocks_compiled", blocks);
          ("vex.cache_hits", hits);
          ("vex.cache_hit_ratio", Stats.hit_ratio hits blocks);
        ]
      @ Hashtbl.fold (fun k v acc -> (k, v) :: acc) pinned_counts []
      @ Micro.metrics ~quick:o.quick ~seed:o.seed
    end
    else begin
      let latency = Array.concat (List.map (fun p -> p.latency) passes) in
      [
        ("setup_s", Stats.median (Array.of_list (List.map (fun p -> p.wall) setup)));
        ( "jobs_per_s",
          Stats.median
            (Array.of_list
               (List.map (fun p -> float_of_int p.jobs /. p.wall) passes)) );
        ("job_p50_ms", 1000.0 *. Stats.quantile latency 0.5);
        ("job_p90_ms", 1000.0 *. Stats.quantile latency 0.9);
        ( "peak_rss_mb",
          Stats.median (Array.of_list (List.map (fun p -> p.rss_mb) passes)) );
      ]
    end
  in
  { Opts.problems; attempted; failed; values; notes }
