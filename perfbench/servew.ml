(* The serve workloads: open-loop HTTP load on a single-worker server.

   Set-up forks a [Serve.Server] child with the default configuration on
   a listening socket bound here first, as the shard layer hands sockets
   to its workers, and times fork to the first answered analysis. The
   request stream is [Loadgen.plan] at 250 requests/s over 2 keep-alive
   connections, mix bench=1,minic=1, tiered engine, 8 iterations: an
   open loop, each request timed from when it was due. Latencies are
   kept exactly — [Loadgen.run] only keeps a histogram quantised to 1/16
   octave, too coarse to compare runs.

   serve-cold offers the stream to a fresh server: minic bodies are all
   new and bench bodies repeat, so its tail comes from requests queued
   behind first-seen bench bodies on the one pool worker. serve-warm
   first sends the stream closed-loop through a server that flushes its
   results to a store file, then sets up servers warm-started from that
   store (`fpgrind serve --store`) and offers the stream again: every
   request is a cache hit, isolating the HTTP, JSON and cache path. *)

let rate = 250.0
let conns = 2

(* Server starts timed per run, half of them after the load: one start
   takes tens of milliseconds, and a median over starts spread across the
   run is steadier than one over starts made back to back. *)
let setup_reps = 10

type server = { pid : int; port : int; up_s : float }

let healthy port =
  match Serve.Client.request ~port ~meth:"GET" ~path:"/healthz" () with
  | r -> r.Serve.Client.c_status = 200
  | exception _ -> false

(* A server is set up once it has answered one analysis. The probe is a
   looping benchmark, which the request stream (straight-line bench
   bodies and MiniC) never sends, so it shares no cache entry with it. *)
let probe port =
  let r =
    Serve.Client.request ~port ~meth:"POST"
      ~path:"/analyze?iterations=8&seed=1&engine=tiered"
      ~body:"bench:geometric-series" ()
  in
  if r.Serve.Client.c_status <> 200 then
    failwith (Printf.sprintf "probe request answered %d" r.Serve.Client.c_status)

(* SIGTERM drains the server, which then exits 0; one still running
   after 10 s is killed. Returns whether it drained cleanly. *)
let stop (s : server) : bool =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Stats.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Stats.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid);
        false
    | _, status -> status = Unix.WEXITED 0
  in
  reap ()

let start ?store () : server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 128;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  flush stdout;
  flush stderr;
  let t0 = Stats.now () in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let srv =
            Serve.Server.create
              {
                Serve.Server.default_config with
                Serve.Server.port;
                quiet = true;
                listen_fd = Some fd;
                store_path = store;
              }
          in
          Sys.set_signal Sys.sigterm
            (Sys.Signal_handle (fun _ -> Serve.Server.stop srv));
          Serve.Server.run srv;
          0
        with e ->
          prerr_endline ("perfbench: server: " ^ Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close fd;
      let s = { pid; port; up_s = 0.0 } in
      let rec wait () =
        if healthy port then probe port
        else if Stats.now () -. t0 > 30.0 then failwith "server never answered /healthz"
        else begin
          Unix.sleepf 0.001;
          wait ()
        end
      in
      (match wait () with
      | () -> ()
      | exception e ->
          ignore (stop s);
          raise e);
      { s with up_s = Stats.now () -. t0 }

(* ---------- the open-loop client ---------- *)

type load = {
  due : float array;
  finish : float array;
  status : int array;  (* 0 = transport error *)
  bodies : string array;
  elapsed : float;  (* first due time to last response *)
}

let drive ~port (specs : Loadgen.spec array) : load =
  let n = Array.length specs in
  let start = Stats.now () +. 0.05 in
  let due = Array.init n (fun i -> start +. (float_of_int i /. rate)) in
  let finish = Array.make n nan in
  let status = Array.make n 0 in
  let bodies = Array.make n "" in
  let next = Atomic.make 0 in
  let worker () =
    let conn = Serve.Client.connect ~port () in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let wait = due.(i) -. Stats.now () in
        if wait > 0.0 then Thread.delay wait;
        let sp = specs.(i) in
        (match
           Serve.Client.request_conn conn ~meth:"POST" ~path:sp.Loadgen.sp_path
             ~body:sp.Loadgen.sp_body ()
         with
        | r ->
            finish.(i) <- Stats.now ();
            status.(i) <- r.Serve.Client.c_status;
            bodies.(i) <- r.Serve.Client.c_body
        | exception _ -> Serve.Client.close conn);
        go ()
      end
    in
    go ();
    Serve.Client.close conn
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  { due; finish; status; bodies; elapsed = Stats.now () -. start }

let ok_count (l : load) =
  Array.fold_left (fun n s -> if s / 100 = 2 then n + 1 else n) 0 l.status

(* ---------- /metrics ---------- *)

let scrape port : (string * float) list =
  let r = Serve.Client.request ~port ~meth:"GET" ~path:"/metrics" () in
  String.split_on_char '\n' r.Serve.Client.c_body
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else
           match String.rindex_opt l ' ' with
           | None -> None
           | Some i ->
               float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
               |> Option.map (fun v -> (String.sub l 0 i, v)))

(* a family's total over all label sets, or one exact series *)
let total samples name =
  List.fold_left
    (fun acc (k, v) ->
      if k = name || String.starts_with ~prefix:(name ^ "{") k then acc +. v
      else acc)
    0.0 samples

(* ---------- checks ---------- *)

let scrub body = Pins.canon_json (Pins.scrub ~drop:[ "status" ] (Json.of_string body))

(* What the server should have answered: the same request parsed and
   analyzed in this process through [Serve.Server.analyze_spec], as the
   server builds its jobs. *)
let expected (sp : Loadgen.spec) : string =
  let raw =
    Serve.Client.request_bytes ~host:"127.0.0.1" ~port:0 ~meth:"POST"
      ~path:sp.Loadgen.sp_path ~headers:[] ~body:sp.Loadgen.sp_body
      ~keep_alive:false
  in
  let rq = Serve.Http.read_request (Serve.Http.reader_of_string raw) in
  let o = Fleet.exec_one (Serve.Server.analyze_spec rq) in
  Pins.canon_json
    (Pins.scrub ~drop:[ "status" ] (Fleet.Store.outcome_to_json o))

(* the first three requests of each kind *)
let checked_indices (specs : Loadgen.spec array) : int list =
  let is_bench i = String.starts_with ~prefix:"bench:" specs.(i).Loadgen.sp_body in
  let all = List.init (Array.length specs) Fun.id in
  let first p = List.filteri (fun k _ -> k < 3) (List.filter p all) in
  first is_bench @ first (fun i -> not (is_bench i))

(* serve-warm's cache fill: the stream once, closed loop, on one
   connection. Returns how many requests failed. *)
let fill ~port (specs : Loadgen.spec array) : int =
  let conn = Serve.Client.connect ~port () in
  let failed =
    Array.fold_left
      (fun n (sp : Loadgen.spec) ->
        match
          Serve.Client.request_conn conn ~meth:"POST" ~path:sp.Loadgen.sp_path
            ~body:sp.Loadgen.sp_body ()
        with
        | r when r.Serve.Client.c_status / 100 = 2 -> n
        | _ | (exception _) -> n + 1)
      0 specs
  in
  Serve.Client.close conn;
  failed

let execute ~warm (o : Opts.t) : Opts.result =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let specs =
    Loadgen.plan
      {
        Loadgen.default_config with
        Loadgen.lg_rate = rate;
        lg_duration = o.Opts.seconds;
        lg_conns = conns;
        lg_seed = o.Opts.seed;
        lg_mix = [ (1, Loadgen.Bench); (1, Loadgen.Minic) ];
        lg_engine = "tiered";
        lg_iterations = 8;
      }
  in
  let n = Array.length specs in
  let store =
    if warm then Some (Opts.out_file o "serve-warm-store.jsonl") else None
  in
  let fill_failed, fill_drained =
    match store with
    | None -> (0, true)
    | Some path ->
        if Sys.file_exists path then Sys.remove path;
        let f = start ?store () in
        let failed =
          try fill ~port:f.port specs
          with e ->
            ignore (stop f);
            raise e
        in
        (failed, stop f)
  in
  let restart () =
    let s = start ?store () in
    (s.up_s, stop s)
  in
  let ups_before = List.init ((setup_reps / 2) - 1) (fun _ -> restart ()) in
  let srv = start ?store () in
  let measure () =
    let m0 = scrape srv.port in
    let load = drive ~port:srv.port specs in
    let m1 = scrape srv.port in
    (load, m0, m1, Stats.status_mb ~pid:(string_of_int srv.pid) "VmHWM")
  in
  let load, m0, m1, rss =
    match measure () with
    | r -> r
    | exception e ->
        ignore (stop srv);
        raise e
  in
  let drained = stop srv in
  let ups = ups_before @ List.init (setup_reps / 2) (fun _ -> restart ()) in
  let drained = drained && fill_drained && List.for_all snd ups in
  Option.iter Sys.remove store;
  let d name = total m1 name -. total m0 name in
  let hits = d "fpgrind_cache_hits_total" and misses = d "fpgrind_cache_misses_total" in
  let ok = ok_count load in
  let records = Array.map (fun b -> if b = "" then "" else scrub b) load.bodies in
  let mismatched =
    List.filter
      (fun i -> load.status.(i) / 100 <> 2 || records.(i) <> expected specs.(i))
      (checked_indices specs)
  in
  let problems =
    (if ok < n then
       [ Printf.sprintf "%d of %d requests not answered 2xx" (n - ok) n ]
     else [])
    @ (if fill_failed > 0 then
         [ Printf.sprintf "%d cache-fill requests failed" fill_failed ]
       else [])
    @ (if warm && (hits <> float_of_int n || misses <> 0.0) then
         [
           Printf.sprintf "warm phase: %.0f cache hits, %.0f misses for %d requests"
             hits misses n;
         ]
       else [])
    @ List.map
        (Printf.sprintf "request %d: response differs from the same job run locally")
        mismatched
    @ if drained then [] else [ "a server did not drain and exit cleanly" ]
  in
  let latency =
    Array.of_list
      (List.filter_map
         (fun i ->
           if load.status.(i) / 100 = 2 then Some (load.finish.(i) -. load.due.(i))
           else None)
         (List.init n Fun.id))
  in
  let duration = float_of_int n /. rate in
  let ups = srv.up_s :: List.map fst ups in
  let values =
    if o.Opts.trace then begin
      let sp = Spans.create () in
      Array.iteri
        (fun i due ->
          Spans.record sp ~name:"serve.request" ~job:(Printf.sprintf "request %d" i)
            ~start:due ~stop:load.finish.(i))
        load.due;
      Spans.write sp (Opts.spans_file o);
      let blocks = d "fpgrind_blocks_compiled_total" in
      let chits = d "fpgrind_compile_cache_hits_total" in
      (* seconds spent per second of load *)
      let busy_pct name = 100.0 *. d name /. load.elapsed in
      [
        ("serve.cache_hit_ratio", Stats.hit_ratio hits misses);
        ( "serve.http_busy_pct",
          busy_pct "fpgrind_http_request_seconds_sum{endpoint=\"/analyze\"}" );
        ("serve.job_busy_pct", busy_pct "fpgrind_fleet_job_seconds_sum");
        ("serve.jobs", d "fpgrind_fleet_jobs_total");
        ("serve.escalations", d "fpgrind_tiered_escalations_total");
        ("serve.rejected", d "fpgrind_rejected_total" +. d "fpgrind_ratelimited_total");
        ("serve.gen_overrun_pct", 100.0 *. (load.elapsed -. duration) /. duration);
        ("vex.blocks_compiled", blocks);
        ("vex.cache_hits", chits);
        ("vex.cache_hit_ratio", Stats.hit_ratio chits blocks);
      ]
      @ Micro.metrics ~quick:o.Opts.quick ~seed:o.Opts.seed
    end
    else
      [
        ("setup_s", Stats.median (Array.of_list ups));
        ("jobs_per_s", float_of_int ok /. load.elapsed);
        ("job_p50_ms", 1000.0 *. Stats.quantile latency 0.5);
        ("job_p90_ms", 1000.0 *. Stats.quantile latency 0.9);
        ("peak_rss_mb", rss);
      ]
  in
  {
    Opts.problems;
    attempted = (if warm then 2 * n else n);
    failed = n - ok + fill_failed;
    values;
    notes =
      [
        Printf.sprintf "server up_s %s"
          (String.concat " " (List.map (Printf.sprintf "%.4f") ups));
        Printf.sprintf
          "load requests=%d ok=%d elapsed_s=%.4f cache_hits=%.0f misses=%.0f" n
          ok load.elapsed hits misses;
        Stats.latency_note latency;
        "records_digest " ^ Pins.digest_lines records;
      ];
  }
