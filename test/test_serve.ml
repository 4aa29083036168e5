(* fpgrind.serve: the analysis service end to end — Prometheus metrics
   rendering, torn-store recovery, deterministic pool backpressure, a
   live in-process server (byte-identity with the suite engine, cache
   hits, 503 overflow under concurrent load, graceful drain), and the
   CLI exit-code contract. *)

module Metrics = Serve.Metrics
module Server = Serve.Server
module Client = Serve.Client

let ok_payload name =
  {
    Fleet.p_metrics =
      {
        Fleet.m_blocks = 1;
        m_stmts = 1;
        m_stmts_executed = 0;
        m_fp_ops = 0;
        m_trace_nodes = 0;
        m_traces_materialized = 0;
        m_spots = 0;
        m_causes = 0;
        m_compensations = 0;
        m_err_max = 0.0;
        m_escalations = 0;
        m_slice_stmts = 0;
      };
    p_summary = name ^ ": ok";
    p_report = "No floating-point problems found.\n";
    p_regime = None;
  }

let outcome ?(status = Fleet.Done) ?(key = "") name =
  {
    Fleet.o_name = name;
    o_group = "test";
    o_key = key;
    o_engine = "full";
    o_status = status;
    o_wall_s = 0.1;
    o_payload = (match status with Fleet.Failed _ -> None | _ -> Some (ok_payload name));
  }

(* ---------- metrics rendering ---------- *)

let test_metrics_render () =
  let reg = Metrics.create () in
  let c =
    Metrics.counter reg ~labels:[ "endpoint" ] ~help:"requests" "t_requests_total"
  in
  Metrics.sampled reg `Gauge ~help:"depth" "t_depth" (fun () -> 3.0);
  let h =
    Metrics.histogram reg ~buckets:[| 0.1; 1.0 |] ~help:"seconds" "t_seconds"
  in
  Metrics.inc c [ "/analyze" ];
  Metrics.inc c [ "/analyze" ];
  Metrics.inc c [ "/healthz" ];
  Metrics.observe h 0.0625;
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  let out = Metrics.render reg in
  let expect =
    "# HELP t_requests_total requests\n\
     # TYPE t_requests_total counter\n\
     t_requests_total{endpoint=\"/analyze\"} 2\n\
     t_requests_total{endpoint=\"/healthz\"} 1\n\
     # HELP t_depth depth\n\
     # TYPE t_depth gauge\n\
     t_depth 3\n\
     # HELP t_seconds seconds\n\
     # TYPE t_seconds histogram\n\
     t_seconds_bucket{le=\"0.1\"} 1\n\
     t_seconds_bucket{le=\"1\"} 2\n\
     t_seconds_bucket{le=\"+Inf\"} 3\n\
     t_seconds_sum 5.5625\n\
     t_seconds_count 3\n"
  in
  Alcotest.(check string) "exposition format" expect out

let test_metrics_escaping_and_validation () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~labels:[ "path" ] ~help:"h" "t_esc" in
  Metrics.inc c [ "a\"b\\c\nd" ];
  let out = Metrics.render reg in
  Alcotest.(check bool)
    "label value escaped" true
    (let needle = "t_esc{path=\"a\\\"b\\\\c\\nd\"} 1" in
     try
       ignore (Str.search_forward (Str.regexp_string needle) out 0);
       true
     with Not_found -> false);
  (match Metrics.counter reg ~help:"h" "bad-name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hyphenated metric name accepted");
  (match Metrics.counter reg ~help:"h" "t_esc" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate metric accepted");
  match Metrics.inc c ~by:(-1.0) [ "x" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative counter increment accepted"

(* ---------- torn-store recovery ---------- *)

let test_store_truncated_tail () =
  let path = Filename.temp_file "serve_store" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fleet.Store.save path [ outcome "a"; outcome "b" ];
      (* simulate a crash mid-append: a torn trailing record *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"name\": \"torn";
      close_out oc;
      let before = Fleet.Store.corrupt_tail_total () in
      let outcomes, skipped = Fleet.Store.load_lenient path in
      Alcotest.(check int) "intact records kept" 2 (List.length outcomes);
      Alcotest.(check int) "one line skipped" 1 skipped;
      Alcotest.(check int)
        "skip counter advanced" (before + 1)
        (Fleet.Store.corrupt_tail_total ());
      Alcotest.(check int)
        "plain load uses the lenient path" 2
        (List.length (Fleet.Store.load path)))

let test_store_midfile_corruption_still_raises () =
  let path = Filename.temp_file "serve_store" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"name\": \"torn\n";
      output_string oc
        (Json.to_string (Fleet.Store.outcome_to_json (outcome "a")) ^ "\n");
      close_out oc;
      match Fleet.Store.load_lenient path with
      | exception (Json.Parse_error _ | Failure _) -> ()
      | _ -> Alcotest.fail "mid-file corruption must not be skipped")

(* ---------- deterministic pool backpressure ---------- *)

let test_pool_backpressure () =
  let gate = Mutex.create () in
  Mutex.lock gate;
  let pool = Fleet.Pool.create ~queue:1 ~jobs:1 () in
  let spec name work =
    {
      Fleet.sp_name = name;
      sp_group = "test";
      sp_key = "";
      sp_engine = "full";
      sp_work = work;
    }
  in
  let blocker =
    spec "blocker" (fun ~tick:_ ->
        Mutex.lock gate;
        Mutex.unlock gate;
        ok_payload "blocker")
  in
  let quick = spec "quick" (fun ~tick:_ -> ok_payload "quick") in
  let t1 =
    match Fleet.Pool.submit pool blocker with
    | Some t -> t
    | None -> Alcotest.fail "empty pool refused a job"
  in
  (* wait until the blocker occupies the worker, so the queue state is
     deterministic: one running, capacity one *)
  let tries = ref 0 in
  while Fleet.Pool.in_flight pool < 1 && !tries < 500 do
    incr tries;
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) "blocker running" 1 (Fleet.Pool.in_flight pool);
  let t2 =
    match Fleet.Pool.submit pool quick with
    | Some t -> t
    | None -> Alcotest.fail "queue with capacity refused a job"
  in
  Alcotest.(check int) "one job queued" 1 (Fleet.Pool.queue_depth pool);
  (match Fleet.Pool.submit pool quick with
  | None -> ()
  | Some _ -> Alcotest.fail "full queue accepted a job");
  Mutex.unlock gate;
  Alcotest.(check bool)
    "blocker completes" true
    ((Fleet.Pool.await pool t1).Fleet.o_status = Fleet.Done);
  Alcotest.(check bool)
    "queued job completes" true
    ((Fleet.Pool.await pool t2).Fleet.o_status = Fleet.Done);
  Fleet.Pool.drain pool;
  match Fleet.Pool.submit pool quick with
  | None -> ()
  | Some _ -> Alcotest.fail "drained pool accepted a job"

(* ---------- the live server ---------- *)

let start_server cfg =
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  (srv, th, Server.port srv)

let strip_volatile (j : Json.t) : Json.t =
  match j with
  | Json.Obj kvs ->
      Json.Obj (List.filter (fun (k, _) -> k <> "wall_s") kvs)
  | j -> j

let get port path = Client.request ~port ~meth:"GET" ~path ()
let post port path body = Client.request ~port ~meth:"POST" ~path ~body ()

(* Wait, up to a deadline, until at most [n] connections are open: a
   client's close reaches the server's connection count only once its
   thread sees EOF, so a scrape right after a one-shot request could
   still count that request's connection. *)
let await_connections srv n =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Server.connections srv > n && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done

(* the value of one exposition series, 0 when it has no sample line *)
let sample (m : string) (series : string) : float =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ s; v ] when s = series -> float_of_string v
      | _ -> acc)
    0.0 (String.split_on_char '\n' m)

let jobs_ok port =
  sample (get port "/metrics").Client.c_body
    "fpgrind_fleet_jobs_total{status=\"ok\"}"

let with_server cfg f =
  let srv, th, port = start_server cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () -> f srv port)

let quiet_config = { Server.default_config with port = 0; quiet = true }

(* a MiniC program that analyzes slowly enough to pile up the queue;
   [salt] makes each program's content hash distinct so none is a cache
   hit *)
let slow_minic ~salt ~iters =
  String.concat "\n"
    [
      "int main() {";
      Printf.sprintf "  double x = 1.0 + 0.000001 * %d.0;" salt;
      "  int i = 0;";
      Printf.sprintf "  while (i < %d) {" iters;
      "    x = x * 1.0000001 + 0.000001;";
      "    i = i + 1;";
      "  }";
      "  print(x);";
      "  return 0;";
      "}";
    ]

let test_server_end_to_end () =
  let srv, th, port =
    start_server { Server.default_config with port = 0; queue = 8; quiet = true }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () ->
      (* health and routing *)
      let r = get port "/healthz" in
      Alcotest.(check int) "healthz status" 200 r.Client.c_status;
      Alcotest.(check string) "healthz body" "ok\n" r.Client.c_body;
      Alcotest.(check int) "unknown path" 404 (get port "/nope").Client.c_status;
      Alcotest.(check int)
        "wrong method" 405
        (get port "/analyze").Client.c_status;
      (* byte-identity with the suite engine, modulo wall time *)
      let q = "/analyze?iterations=4&seed=1&precision=128" in
      let r = post port q "bench:intro-example" in
      Alcotest.(check int) "analyze status" 200 r.Client.c_status;
      let job =
        List.hd
          (Fpcore.Suite.enumerate ~iterations:4 ~seed:1
             ~names:[ "intro-example" ] ())
      in
      let cfg = { Core.Config.default with Core.Config.precision = 128 } in
      let local = Fleet.exec_one (Fleet.bench_spec ~cfg job) in
      Alcotest.(check string)
        "response equals the engine's record (modulo wall_s)"
        (Json.to_string
           (strip_volatile (Fleet.Store.outcome_to_json local)))
        (Json.to_string
           (strip_volatile (Json.of_string (String.trim r.Client.c_body))));
      (* the repeat is a cache hit *)
      let r2 = post port q "bench:intro-example" in
      Alcotest.(check int) "cached status" 200 r2.Client.c_status;
      Alcotest.(check string)
        "cached marker" "cached"
        (Json.get_str "status"
           (Json.of_string (String.trim r2.Client.c_body)));
      (* ad-hoc sources compile and analyze *)
      let r =
        post port "/analyze?precision=64&name=tiny.mc"
          "int main() { double x = 0.1 + 0.2; print(x); return 0; }"
      in
      Alcotest.(check int) "minic analyze" 200 r.Client.c_status;
      let r =
        post port "/analyze?precision=64&iterations=2&inputs=1.5"
          "(FPCore (x) (- (+ x 1) x))"
      in
      Alcotest.(check int) "fpcore analyze" 200 r.Client.c_status;
      (* the sanitizer engine has its own endpoint; records carry the tag *)
      let r =
        post port "/sanitize?name=san.mc"
          "int main() { double x = 0.1 + 0.2; print((x - 0.3) * 1e17); \
           return 0; }"
      in
      Alcotest.(check int) "sanitize status" 200 r.Client.c_status;
      Alcotest.(check string)
        "sanitize engine tag" "sanitize"
        (Json.get_str "engine"
           (Json.of_string (String.trim r.Client.c_body)));
      Alcotest.(check int)
        "bad engine name" 400
        (post port "/analyze?engine=quad" "bench:intro-example").Client.c_status;
      (* request rejection: all analysis-side 400s *)
      let bad path body =
        (post port path body).Client.c_status
      in
      Alcotest.(check int) "empty body" 400 (bad "/analyze" "");
      Alcotest.(check int)
        "unknown benchmark" 400 (bad "/analyze" "bench:no-such-bench");
      Alcotest.(check int)
        "iterations out of range" 400
        (bad "/analyze?iterations=0" "bench:intro-example");
      Alcotest.(check int)
        "precision out of range" 400
        (bad "/analyze?precision=10" "bench:intro-example");
      Alcotest.(check int)
        "minic that does not compile" 400 (bad "/analyze" "int main( {");
      Alcotest.(check int)
        "fpcore that does not parse" 400 (bad "/analyze" "(FPCore (x)");
      (* the scrape reflects what just happened; its own connection is
         the only one open *)
      await_connections srv 0;
      let m = (get port "/metrics").Client.c_body in
      let has needle =
        try
          ignore (Str.search_forward (Str.regexp_string needle) m 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool)
        "request counter by endpoint and status" true
        (has "fpgrind_http_requests_total{endpoint=\"/analyze\",status=\"200\"} 4");
      Alcotest.(check bool) "cache hit counted" true
        (has "fpgrind_cache_hits_total 1");
      Alcotest.(check bool) "rejection counter exposed" true
        (has "fpgrind_rejected_total 0");
      Alcotest.(check bool) "sanitize jobs counted" true
        (has "fpgrind_sanitize_jobs_total{status=\"ok\"} 1");
      (* the 4 jobs through the server's pool; the in-process exec_one
         above is not a server job *)
      Alcotest.(check bool) "fleet jobs counted" true
        (has "fpgrind_fleet_jobs_total{status=\"ok\"} 4");
      (* the serve-v2 gauges: the metrics scrape itself is the one open
         connection; no limiter and no shards are configured, but both
         series must still be materialized at zero *)
      Alcotest.(check bool) "active connections gauge" true
        (has "fpgrind_active_connections 1");
      Alcotest.(check bool) "rate-limit counter materialized" true
        (has "fpgrind_ratelimited_total 0");
      (* unlabeled counters render a sample line from registration on *)
      List.iter
        (fun fam ->
          Alcotest.(check bool) (fam ^ " sample line") true
            (has ("\n" ^ fam ^ " ")))
        [
          "fpgrind_store_torn_records_total";
          "fpgrind_blocks_compiled_total";
          "fpgrind_compile_cache_hits_total";
          "fpgrind_ratelimited_total";
        ];
      Alcotest.(check bool) "shard restarts gauge" true
        (has "fpgrind_shard_restarts_total 0");
      (* the request-latency histogram renders cumulative buckets:
         every count is <= the next, ending at +Inf *)
      let bucket_counts =
        let re =
          Str.regexp
            "fpgrind_http_request_seconds_bucket{endpoint=\"/analyze\",le=\"\\([^\"]+\\)\"} \\([0-9]+\\)"
        in
        let rec go pos acc =
          match Str.search_forward re m pos with
          | pos ->
              let le = Str.matched_group 1 m in
              let n = int_of_string (Str.matched_group 2 m) in
              go (pos + 1) ((le, n) :: acc)
          | exception Not_found -> List.rev acc
        in
        go 0 []
      in
      Alcotest.(check bool)
        "latency histogram has buckets" true
        (List.length bucket_counts > 1);
      Alcotest.(check string)
        "last bucket is +Inf" "+Inf"
        (fst (List.nth bucket_counts (List.length bucket_counts - 1)));
      let counts = List.map snd bucket_counts in
      Alcotest.(check bool)
        "bucket counts are cumulative" true
        (List.for_all2 ( <= )
           (List.filteri (fun i _ -> i < List.length counts - 1) counts)
           (List.tl counts));
      Alcotest.(check bool)
        "+Inf bucket saw every /analyze request" true
        (List.nth counts (List.length counts - 1) >= 4))

(* ---------- the exposition and what it counts ---------- *)

(* Scrapers (perfbench's serve workloads, scripts/ci.sh, dashboards) key
   on these families in this order. *)
let test_exposition_pin () =
  with_server quiet_config (fun _srv port ->
      let families =
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "#"; "TYPE"; fam; kind ] -> Some (fam, kind)
            | _ -> None)
          (String.split_on_char '\n' (get port "/metrics").Client.c_body)
      in
      Alcotest.(check (list (pair string string)))
        "families and types, in order"
        [
          ("fpgrind_http_requests_total", "counter");
          ("fpgrind_http_request_seconds", "histogram");
          ("fpgrind_queue_depth", "gauge");
          ("fpgrind_jobs_in_flight", "gauge");
          ("fpgrind_cache_hits_total", "counter");
          ("fpgrind_cache_misses_total", "counter");
          ("fpgrind_rejected_total", "counter");
          ("fpgrind_fleet_jobs_total", "counter");
          ("fpgrind_fleet_job_seconds", "histogram");
          ("fpgrind_sanitize_jobs_total", "counter");
          ("fpgrind_sanitize_findings_total", "counter");
          ("fpgrind_tiered_jobs_total", "counter");
          ("fpgrind_tiered_escalations_total", "counter");
          ("fpgrind_tiered_slice_stmts_total", "counter");
          ("fpgrind_store_corrupt_lines_total", "gauge");
          ("fpgrind_store_torn_records_total", "counter");
          ("fpgrind_campaign_findings_total", "gauge");
          ("fpgrind_campaign_feed_bytes", "gauge");
          ("fpgrind_blocks_compiled_total", "counter");
          ("fpgrind_compile_cache_hits_total", "counter");
          ("fpgrind_regimes_inferred_total", "counter");
          ("fpgrind_regime_search_points_total", "counter");
          ("fpgrind_active_connections", "gauge");
          ("fpgrind_ratelimited_total", "counter");
          ("fpgrind_shard_restarts_total", "gauge");
        ]
        families)

(* A campaign runs its chunks through Fleet.run inside the one /fuzz
   job; only that job ran on the server's pool. *)
let test_fuzz_is_one_job () =
  with_server quiet_config (fun _srv port ->
      let before = jobs_ok port in
      Alcotest.(check int)
        "fuzz status" 200
        (post port "/fuzz?iters=40" "").Client.c_status;
      Alcotest.(check (float 0.0)) "one fleet job" (before +. 1.0) (jobs_ok port))

(* Two servers in one process count their own jobs: stopping one leaves
   the other counting. *)
let test_sibling_stop_keeps_counting () =
  with_server quiet_config (fun _srv port ->
      with_server quiet_config (fun _ _ -> ());
      let before = jobs_ok port in
      Alcotest.(check int)
        "analyze status" 200
        (post port "/analyze?precision=64&name=sibling.mc"
           "int main() { double x = 0.1 + 0.7; print(x); return 0; }")
          .Client.c_status;
      Alcotest.(check (float 0.0))
        "job counted after the sibling stopped" (before +. 1.0) (jobs_ok port))

(* ---------- keep-alive end to end ---------- *)

let test_server_keepalive () =
  let srv, th, port =
    start_server { Server.default_config with port = 0; queue = 8; quiet = true }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () ->
      let conn = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let req ?body meth path =
            Client.request_conn conn ~meth ~path ?body ()
          in
          (* several requests down one connection *)
          let h = req "GET" "/healthz" in
          Alcotest.(check int) "healthz over keep-alive" 200 h.Client.c_status;
          Alcotest.(check (option string))
            "server keeps the connection open" (Some "keep-alive")
            (List.assoc_opt "connection" h.Client.c_headers);
          (* /analyze under keep-alive is byte-identical to the engine's
             own record, modulo wall_s — same contract as one-shot *)
          let q = "/analyze?iterations=4&seed=1&precision=128" in
          let r = req "POST" q ~body:"bench:intro-example" in
          Alcotest.(check int) "analyze status" 200 r.Client.c_status;
          let job =
            List.hd
              (Fpcore.Suite.enumerate ~iterations:4 ~seed:1
                 ~names:[ "intro-example" ] ())
          in
          let cfg = { Core.Config.default with Core.Config.precision = 128 } in
          let local = Fleet.exec_one (Fleet.bench_spec ~cfg job) in
          Alcotest.(check string)
            "keep-alive response equals the engine's record (modulo wall_s)"
            (Json.to_string
               (strip_volatile (Fleet.Store.outcome_to_json local)))
            (Json.to_string
               (strip_volatile
                  (Json.of_string (String.trim r.Client.c_body))));
          (* the repeat on the same connection is a cache hit *)
          let r2 = req "POST" q ~body:"bench:intro-example" in
          Alcotest.(check string)
            "second request on the same connection is cached" "cached"
            (Json.get_str "status"
               (Json.of_string (String.trim r2.Client.c_body)));
          (* the scrape sees exactly one open connection: ours *)
          await_connections srv 1;
          let m = (req "GET" "/metrics").Client.c_body in
          Alcotest.(check bool)
            "one active connection" true
            (try
               ignore
                 (Str.search_forward
                    (Str.regexp_string "fpgrind_active_connections 1")
                    m 0);
               true
             with Not_found -> false)))

(* ---------- per-client rate limiting ---------- *)

let test_server_ratelimit () =
  (* burst of 2 tokens refilling at 1/s: a salvo of six quick POSTs gets
     roughly two through and the rest 503 with Retry-After; GETs and the
     metrics scrape never pay tokens *)
  let srv, th, port =
    start_server
      {
        Server.default_config with
        port = 0;
        queue = 8;
        quiet = true;
        rate_limit = Some 1.0;
        rate_burst = 2;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () ->
      let conn = Client.connect ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let statuses =
            List.init 6 (fun _ ->
                Client.request_conn conn ~meth:"POST"
                  ~path:"/analyze?iterations=2&precision=64"
                  ~body:"bench:intro-example" ())
          in
          let ok =
            List.length
              (List.filter (fun r -> r.Client.c_status = 200) statuses)
          in
          let limited =
            List.filter (fun r -> r.Client.c_status = 503) statuses
          in
          Alcotest.(check bool) "some admitted" true (ok >= 1);
          Alcotest.(check bool) "some limited" true (List.length limited >= 1);
          Alcotest.(check int)
            "everything answered" 6
            (ok + List.length limited);
          List.iter
            (fun r ->
              match List.assoc_opt "retry-after" r.Client.c_headers with
              | Some s when int_of_string s >= 1 -> ()
              | _ -> Alcotest.fail "limited response lacks retry-after")
            limited;
          (* reads are free *)
          List.iter
            (fun _ ->
              Alcotest.(check int)
                "GET is never limited" 200
                (Client.request_conn conn ~meth:"GET" ~path:"/healthz" ())
                  .Client.c_status)
            [ (); (); (); () ];
          let m =
            (Client.request_conn conn ~meth:"GET" ~path:"/metrics" ())
              .Client.c_body
          in
          let count =
            let re = Str.regexp "fpgrind_ratelimited_total \\([0-9]+\\)" in
            ignore (Str.search_forward re m 0);
            int_of_string (Str.matched_group 1 m)
          in
          Alcotest.(check int)
            "every 503 counted" (List.length limited) count))

let test_server_backpressure () =
  (* one worker, queue depth 2, eight concurrent slow requests: at most
     three can be accepted (one running + two queued); the rest must be
     refused with 503 + Retry-After, and every accepted one completes *)
  let srv, th, port =
    start_server
      { Server.default_config with port = 0; jobs = 1; queue = 2; quiet = true }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () ->
      let n = 8 in
      let results = Array.make n (-1) in
      let retry_after = ref false in
      let mu = Mutex.create () in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun i ->
                let r =
                  post port "/analyze?precision=64"
                    (slow_minic ~salt:i ~iters:150000)
                in
                Mutex.lock mu;
                results.(i) <- r.Client.c_status;
                if List.assoc_opt "retry-after" r.Client.c_headers = Some "1"
                then retry_after := true;
                Mutex.unlock mu)
              i)
      in
      List.iter Thread.join threads;
      let count s = Array.fold_left (fun a r -> if r = s then a + 1 else a) 0 results in
      let ok = count 200 and rejected = count 503 in
      Alcotest.(check int) "every request answered" n (ok + rejected);
      Alcotest.(check bool) "some accepted" true (ok >= 1);
      Alcotest.(check bool) "some refused" true (rejected >= 1);
      Alcotest.(check bool)
        "accepted bounded by worker + queue" true (ok <= 3);
      Alcotest.(check bool) "503 carries retry-after" true !retry_after)

let test_server_shutdown_drains () =
  let store = Filename.temp_file "serve_drain" ".jsonl" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists store then Sys.remove store)
    (fun () ->
      let srv, th, port =
        start_server
          {
            Server.default_config with
            port = 0;
            jobs = 1;
            queue = 4;
            store_path = Some store;
            quiet = true;
          }
      in
      let status = ref (-1) in
      let poster =
        Thread.create
          (fun () ->
            let r =
              post port "/analyze?precision=64" (slow_minic ~salt:0 ~iters:60000)
            in
            status := r.Client.c_status)
          ()
      in
      (* let the request get in flight, then ask for shutdown *)
      Unix.sleepf 0.15;
      Server.stop srv;
      Thread.join th;
      Thread.join poster;
      Alcotest.(check int) "in-flight request completed" 200 !status;
      Alcotest.(check int)
        "store flushed on drain" 1
        (List.length (Fleet.Store.load store));
      match Client.request ~port ~meth:"GET" ~path:"/healthz" () with
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
      | exception _ -> ()
      | _ -> Alcotest.fail "drained server still accepts connections")

(* ---------- CLI exit codes ---------- *)

(* dune runtest runs us inside _build/default/test; a by-hand
   `dune exec test/test_serve.exe` runs from the project root *)
let cli =
  List.find Sys.file_exists
    [ "../bin/fpgrind_cli.exe"; "_build/default/bin/fpgrind_cli.exe" ]

let run_cli args = Sys.command (cli ^ " " ^ args ^ " >/dev/null 2>&1")

let test_validate_exit_codes () =
  let path = Filename.temp_file "serve_cli" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fleet.Store.save path [ outcome "a"; outcome "b" ];
      Alcotest.(check int) "clean store" 0 (run_cli ("validate " ^ path));
      Fleet.Store.save path
        [ outcome "a"; outcome ~status:(Fleet.Failed "boom") "b" ];
      Alcotest.(check int) "failed record" 1 (run_cli ("validate " ^ path));
      Fleet.Store.save path [ outcome "a"; outcome ~status:Fleet.Timed_out "b" ];
      Alcotest.(check int) "timeout record" 1 (run_cli ("validate " ^ path));
      Fleet.Store.save path [ outcome "a" ];
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"name\": \"torn";
      close_out oc;
      Alcotest.(check int) "truncated tail" 1 (run_cli ("validate " ^ path)))

(* /analyze?regimes=1 runs regime inference after the engine pass,
   annotates the record with the branch structure, keeps a separate
   cache entry from the plain analysis, and feeds the regime metrics *)
let test_server_regimes () =
  let srv, th, port =
    start_server { Server.default_config with port = 0; queue = 8; quiet = true }
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Thread.join th)
    (fun () ->
      let q = "/analyze?iterations=2&seed=42&precision=64" in
      (* plain analysis first: no regime fields on the record *)
      let plain = post port q "bench:quadratic-full" in
      Alcotest.(check int) "plain status" 200 plain.Client.c_status;
      let pj = Json.of_string (String.trim plain.Client.c_body) in
      Alcotest.(check bool)
        "plain record has no regime fields" true
        (Json.member "regimes" pj = None);
      (* regime-annotated analysis is a distinct cache entry, not a hit *)
      let r = post port (q ^ "&regimes=1") "bench:quadratic-full" in
      Alcotest.(check int) "regimes status" 200 r.Client.c_status;
      let j = Json.of_string (String.trim r.Client.c_body) in
      Alcotest.(check string)
        "regime run is fresh, not the plain cache entry" "ok"
        (Json.get_str "status" j);
      Alcotest.(check bool)
        "quadratic-full branches into >= 2 regimes" true
        (Json.get_int "regimes" j >= 2);
      Alcotest.(check bool)
        "thresholds present" true
        (match Json.member "thresholds" j with
        | Some (Json.Arr (_ :: _)) -> true
        | _ -> false);
      Alcotest.(check bool)
        "error table rendered" true
        (String.length (Json.get_str "error_table" j) > 0);
      (* record round-trips through the store parser with regime intact *)
      let o = Fleet.Store.outcome_of_json j in
      (match o.Fleet.o_payload with
      | Some { Fleet.p_regime = Some rs; _ } ->
          Alcotest.(check bool) "summary regimes" true (rs.Fleet.rs_regimes >= 2);
          Alcotest.(check bool)
            "summary search points" true
            (rs.Fleet.rs_search_points > 0)
      | _ -> Alcotest.fail "store parser dropped the regime summary");
      (* the scrape carries both regime counters *)
      let m = (get port "/metrics").Client.c_body in
      let counter name =
        let re = Str.regexp (Str.quote name ^ " \\([0-9.]+\\)") in
        ignore (Str.search_forward re m 0);
        float_of_string (Str.matched_group 1 m)
      in
      Alcotest.(check bool)
        "regimes inferred counted" true
        (counter "fpgrind_regimes_inferred_total" >= 2.0);
      Alcotest.(check bool)
        "search points counted" true
        (counter "fpgrind_regime_search_points_total" > 0.0))

let test_suite_strict_exit_codes () =
  let base = "suite intro-example --iterations 1 --precision 64 --timeout 0.000001 --quiet" in
  Alcotest.(check int) "timeouts fail under --strict" 1
    (run_cli (base ^ " --strict"));
  Alcotest.(check int) "timeouts pass without --strict" 0 (run_cli base)

(* bad user input is an "error:" line and exit 1, not an escaped
   exception (cmdliner's exit 125) *)
let test_user_error_exit_codes () =
  let fpcore src =
    let path = Filename.temp_file "serve_cli" ".fpcore" in
    let oc = open_out path in
    output_string oc src;
    close_out oc;
    path
  in
  let unterminated = fpcore "(FPCore (x) (+ x 1)\n" in
  let unbound = fpcore "(FPCore (x) (+ x y))\n" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ unterminated; unbound ])
    (fun () ->
      List.iter
        (fun args -> Alcotest.(check int) args 1 (run_cli args))
        [
          "analyze bench:nope";
          "run bench:nope";
          "sanitize bench:nope";
          "analyze " ^ unterminated;
          "run " ^ unterminated;
          "analyze " ^ unbound;
        ])

(* a --precision outside the server's accepted range is refused while
   the command line is parsed: nonzero exit, and no job ran *)
let test_precision_bounds () =
  let out = Filename.temp_file "serve_cli" ".jsonl" in
  Sys.remove out;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      List.iter
        (fun p ->
          let args =
            Printf.sprintf
              "suite intro-example --iterations 1 --quiet --precision %d \
               --json %s"
              p out
          in
          Alcotest.(check bool) (args ^ " fails") true (run_cli args <> 0);
          Alcotest.(check bool) "no results written" false (Sys.file_exists out))
        [ 0; 10; 70000 ];
      Alcotest.(check bool)
        "analyze --precision 10 fails" true
        (run_cli "analyze bench:intro-example --precision 10" <> 0))

let () =
  Alcotest.run "serve"
    [
      ( "metrics",
        [
          Alcotest.test_case "exposition format" `Quick test_metrics_render;
          Alcotest.test_case "escaping and validation" `Quick
            test_metrics_escaping_and_validation;
        ] );
      ( "store",
        [
          Alcotest.test_case "truncated tail tolerated" `Quick
            test_store_truncated_tail;
          Alcotest.test_case "mid-file corruption raises" `Quick
            test_store_midfile_corruption_still_raises;
        ] );
      ( "pool",
        [ Alcotest.test_case "bounded queue" `Quick test_pool_backpressure ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "keep-alive end to end" `Quick
            test_server_keepalive;
          Alcotest.test_case "per-client rate limit" `Quick
            test_server_ratelimit;
          Alcotest.test_case "backpressure under load" `Quick
            test_server_backpressure;
          Alcotest.test_case "shutdown drains" `Quick test_server_shutdown_drains;
          Alcotest.test_case "regime inference endpoint" `Quick
            test_server_regimes;
          Alcotest.test_case "exposition pin" `Quick test_exposition_pin;
          Alcotest.test_case "fuzz is one fleet job" `Quick test_fuzz_is_one_job;
          Alcotest.test_case "sibling stop keeps counting" `Quick
            test_sibling_stop_keeps_counting;
        ] );
      ( "cli",
        [
          Alcotest.test_case "validate exit codes" `Quick
            test_validate_exit_codes;
          Alcotest.test_case "suite --strict exit codes" `Quick
            test_suite_strict_exit_codes;
          Alcotest.test_case "user-input errors exit 1" `Quick
            test_user_error_exit_codes;
          Alcotest.test_case "precision out of range" `Quick
            test_precision_bounds;
        ] );
    ]
