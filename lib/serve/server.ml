(* fpgrind.serve — the network analysis service.

   An accept loop (main thread, self-pipe wakeup) hands each connection
   to a systhread, which serves HTTP/1.1 keep-alive requests off it in a
   loop ([Http.session]: pipelined reads, per-connection request cap and
   idle timeout); handlers parse the request and dispatch analysis work
   onto a persistent Fleet.Pool of domains through a bounded queue.
   Backpressure is explicit: when the queue is full, POST /analyze and
   POST /fuzz answer 503 with a Retry-After hint instead of queueing
   unboundedly. Repeated submissions of the same source are served from
   the Fleet content-hash cache without re-analysis, and the cache can be
   warmed from / flushed to a JSONL store (the same format `fpgrind
   suite --json` writes).

   Graceful shutdown ([stop], or SIGINT/SIGTERM in the CLI): the accept
   loop exits and closes the listening socket, open connections run to
   completion — which drains their queued jobs — the pool is drained and
   joined, and the store is flushed. *)

type config = {
  port : int;  (* 0 picks an ephemeral port; see [port] for the result *)
  host : string;
  jobs : int;  (* pool worker domains *)
  queue : int;  (* bounded queue depth; overflow answers 503 *)
  timeout : float option;  (* default per-request analysis deadline *)
  max_body : int;
  store_path : string option;  (* JSONL cache warm-start + shutdown flush *)
  findings_path : string option;  (* campaign findings JSONL feed *)
  quiet : bool;
  keep_alive_requests : int;  (* requests served per connection before close *)
  idle_timeout : float;  (* seconds a keep-alive connection may sit quiet *)
  rate_limit : float option;  (* per-client POSTs/second; None = unlimited *)
  rate_burst : int;  (* token-bucket capacity *)
  shared_cache_path : string option;  (* cross-shard JSONL result cache *)
  shard_status_path : string option;  (* shard parent's status file *)
  listen_fd : Unix.file_descr option;
      (* pre-bound listening socket (shard workers inherit the parent's);
         None binds host:port *)
}

let default_config =
  {
    port = 8080;
    host = "127.0.0.1";
    jobs = 1;
    queue = 16;
    timeout = None;
    max_body = Http.default_max_body;
    store_path = None;
    findings_path = None;
    quiet = false;
    keep_alive_requests = 100;
    idle_timeout = 5.0;
    rate_limit = None;
    rate_burst = 16;
    shared_cache_path = None;
    shard_status_path = None;
    listen_fd = None;
  }

type t = {
  cfg : config;
  pool : Fleet.Pool.t;
  reg : Metrics.t;
  m_requests : Metrics.counter;  (* by endpoint, status *)
  m_request_seconds : Metrics.histogram;  (* by endpoint *)
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_rejected : Metrics.counter;  (* queue-full 503s *)
  m_ratelimited : Metrics.counter;  (* token-bucket 503s *)
  count_job : Fleet.outcome -> unit;  (* the fleet-job series *)
  shared : Cachefile.t option;  (* cross-shard result cache *)
  limiter : Ratelimit.t option;
  cache_mu : Mutex.t;
  cache : (string, Fleet.outcome) Hashtbl.t;
  mutable persisted : Fleet.outcome list;  (* newest first *)
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conn_mu : Mutex.t;  (* held across decrements, so [run] can wait for 0 *)
  conn_cond : Condition.t;
  conns : int Atomic.t;  (* connections currently open *)
}

let port t = t.bound_port
let connections t = Atomic.get t.conns

(* ---------- state the scrape samples ---------- *)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The campaign findings feed: the raw append-only JSONL file, served
   verbatim by /findings so a consumer sees exactly what the campaign
   wrote (the byte-identity contract extends to the wire). An
   unconfigured server has no feed; a configured one whose campaign has
   found nothing yet has an empty one. *)
let findings_feed (cfg : config) : string option =
  match cfg.findings_path with
  | None -> None
  | Some path ->
      Some (if Sys.file_exists path then read_whole_file path else "")

let feed_lines body =
  List.length
    (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body))

(* The shard parent's view of the world, for this worker's /metrics.
   Written atomically (temp + rename) by Shard.run; absent or torn files
   read as 0 restarts. *)
let shard_restarts (cfg : config) : int =
  match cfg.shard_status_path with
  | None -> 0
  | Some path -> (
      match
        Json.get_int "restarts"
          (Json.of_string (String.trim (read_whole_file path)))
      with
      | n -> n
      | exception _ -> 0)

(* ---------- creation ---------- *)

let create (cfg : config) : t =
  (* warm the cache from the store, tolerating a torn tail *)
  let cache = Hashtbl.create 97 in
  let persisted = ref [] in
  (match cfg.store_path with
  | Some path when Sys.file_exists path ->
      let outcomes, _skipped = Fleet.Store.load_lenient path in
      List.iter
        (fun (o : Fleet.outcome) ->
          persisted := o :: !persisted;
          match o.Fleet.o_status with
          | (Fleet.Done | Fleet.Cached) when o.Fleet.o_key <> "" ->
              Hashtbl.replace cache o.Fleet.o_key o
          | _ -> ())
        outcomes
  | _ -> ());
  let listen_fd =
    match cfg.listen_fd with
    | Some fd -> fd
    | None ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (try
           Unix.bind fd
             (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
           Unix.listen fd 128
         with e ->
           (try Unix.close fd with _ -> ());
           raise e);
        fd
  in
  (* Non-blocking accept: with several shard workers select()ing on one
     inherited socket, a connection that wakes everyone is accepted by
     exactly one — the losers see EAGAIN instead of blocking. *)
  Unix.set_nonblock listen_fd;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let wake_r, wake_w = Unix.pipe () in
  let pool = Fleet.Pool.create ~queue:cfg.queue ~jobs:cfg.jobs () in
  let conns = Atomic.make 0 in
  (* registration order is exposition order, which scrapers rely on *)
  let reg = Metrics.create () in
  let sampled kind ~help name read =
    Metrics.sampled reg kind ~help name (fun () -> float_of_int (read ()))
  in
  let m_requests =
    Metrics.counter reg ~labels:[ "endpoint"; "status" ]
      ~help:"HTTP requests served, by endpoint and response status."
      "fpgrind_http_requests_total"
  in
  let m_request_seconds =
    Metrics.histogram reg ~labels:[ "endpoint" ]
      ~help:"Wall time spent serving each request, by endpoint."
      "fpgrind_http_request_seconds"
  in
  sampled `Gauge ~help:"Jobs waiting in the bounded analysis queue."
    "fpgrind_queue_depth" (fun () -> Fleet.Pool.queue_depth pool);
  sampled `Gauge ~help:"Jobs currently running on pool workers."
    "fpgrind_jobs_in_flight" (fun () -> Fleet.Pool.in_flight pool);
  let m_cache_hits =
    Metrics.counter reg
      ~help:"Requests answered from the content-hash result cache."
      "fpgrind_cache_hits_total"
  in
  let m_cache_misses =
    Metrics.counter reg ~help:"Requests that had to run a fresh analysis."
      "fpgrind_cache_misses_total"
  in
  let m_rejected =
    Metrics.counter reg
      ~help:"Requests refused with 503 because the queue was full."
      "fpgrind_rejected_total"
  in
  let m_jobs =
    Metrics.counter reg ~labels:[ "status" ]
      ~help:"Fleet engine jobs finished, by outcome status."
      "fpgrind_fleet_jobs_total"
  in
  let m_job_seconds =
    Metrics.histogram reg ~help:"Wall time of finished fleet jobs."
      "fpgrind_fleet_job_seconds"
  in
  let m_sanitize_jobs =
    Metrics.counter reg ~labels:[ "status" ]
      ~help:"Sanitizer-engine jobs finished, by outcome status."
      "fpgrind_sanitize_jobs_total"
  in
  let m_sanitize_findings =
    Metrics.counter reg
      ~help:"Findings reported by finished sanitizer-engine jobs."
      "fpgrind_sanitize_findings_total"
  in
  let m_tiered_jobs =
    Metrics.counter reg ~labels:[ "status" ]
      ~help:"Tiered-engine jobs finished, by outcome status."
      "fpgrind_tiered_jobs_total"
  in
  let m_tiered_escalations =
    Metrics.counter reg
      ~help:
        "Tiered-engine jobs whose sanitizer pass flagged spots and ran the \
         full-precision escalation pass."
      "fpgrind_tiered_escalations_total"
  in
  let m_tiered_slice_stmts =
    Metrics.counter reg
      ~help:"Statements escalated to full precision by tiered-engine jobs."
      "fpgrind_tiered_slice_stmts_total"
  in
  sampled `Gauge
    ~help:"Truncated trailing JSONL store records skipped since start."
    "fpgrind_store_corrupt_lines_total" Fleet.Store.corrupt_tail_total;
  sampled `Counter
    ~help:
      "Torn JSONL store records skipped by lenient loads. Monotone \
       counter view of the same signal as the corrupt-lines gauge."
    "fpgrind_store_torn_records_total" Fleet.Store.corrupt_tail_total;
  let feed_stat f () = Option.fold ~none:0 ~some:f (findings_feed cfg) in
  sampled `Gauge
    ~help:"Findings currently in the campaign feed served by /findings."
    "fpgrind_campaign_findings_total" (feed_stat feed_lines);
  sampled `Gauge ~help:"Size of the campaign findings feed in bytes."
    "fpgrind_campaign_feed_bytes" (feed_stat String.length);
  sampled `Counter
    ~help:"Vex superblocks pre-decoded into flat compiled statement streams."
    "fpgrind_blocks_compiled_total" Vex.Compile.blocks_compiled_total;
  sampled `Counter
    ~help:"Program executions served from the compiled-block cache."
    "fpgrind_compile_cache_hits_total" Vex.Compile.cache_hits_total;
  let m_regimes =
    Metrics.counter reg
      ~help:
        "Regimes inferred by finished regime-analysis jobs (1 per job when \
         no branch ships)."
      "fpgrind_regimes_inferred_total"
  in
  let m_regime_points =
    Metrics.counter reg
      ~help:"Point evaluations spent by regime threshold searches."
      "fpgrind_regime_search_points_total"
  in
  sampled `Gauge ~help:"Client connections currently open."
    "fpgrind_active_connections" (fun () -> Atomic.get conns);
  let m_ratelimited =
    Metrics.counter reg
      ~help:"Requests refused with 503 by the per-client token bucket."
      "fpgrind_ratelimited_total"
  in
  sampled `Gauge
    ~help:
      "Shard workers respawned by the parent after a crash or kill \
       (0 when not running under the shard layer)."
    "fpgrind_shard_restarts_total" (fun () -> shard_restarts cfg);
  (* called on each outcome this server's pool hands back, so jobs other
     code runs in the same process (campaign chunks, other servers) are
     not counted here *)
  let count_job (o : Fleet.outcome) =
    let status = [ Fleet.Store.status_to_string o.Fleet.o_status ] in
    let inc_by c n = Metrics.inc ~by:(float_of_int n) c [] in
    let sanitize = o.Fleet.o_engine = "sanitize"
    and tiered = o.Fleet.o_engine = "tiered" in
    Metrics.inc m_jobs status;
    Metrics.observe m_job_seconds o.Fleet.o_wall_s;
    if sanitize then Metrics.inc m_sanitize_jobs status;
    if tiered then Metrics.inc m_tiered_jobs status;
    match o.Fleet.o_payload with
    | None -> ()
    | Some p -> (
        let m = p.Fleet.p_metrics in
        if sanitize then inc_by m_sanitize_findings m.Fleet.m_causes;
        if tiered then begin
          inc_by m_tiered_escalations m.Fleet.m_escalations;
          inc_by m_tiered_slice_stmts m.Fleet.m_slice_stmts
        end;
        match p.Fleet.p_regime with
        | Some rs ->
            inc_by m_regimes rs.Fleet.rs_regimes;
            inc_by m_regime_points rs.Fleet.rs_search_points
        | None -> ())
  in
  {
    cfg;
    pool;
    reg;
    m_requests;
    m_request_seconds;
    m_cache_hits;
    m_cache_misses;
    m_rejected;
    m_ratelimited;
    count_job;
    shared = Option.map Cachefile.create cfg.shared_cache_path;
    limiter =
      Option.map
        (fun rate -> Ratelimit.create ~rate ~burst:cfg.rate_burst)
        cfg.rate_limit;
    cache_mu = Mutex.create ();
    cache;
    persisted = !persisted;
    listen_fd;
    bound_port;
    stop_flag = Atomic.make false;
    wake_r;
    wake_w;
    conn_mu = Mutex.create ();
    conn_cond = Condition.create ();
    conns;
  }

(* ---------- building analysis jobs from request bodies ---------- *)

(* [engine] comes from the query on /analyze and is forced by the
   /sanitize endpoint; either way it lands in the config, so the cache
   key (which hashes the fingerprint) separates the engines' results. *)
let cfg_of_query ?engine rq : Core.Config.t =
  let precision =
    Router.q_int rq "precision"
      ~default:Core.Config.default.Core.Config.precision
  in
  let threshold =
    Router.q_float rq "threshold"
      ~default:Core.Config.default.Core.Config.error_threshold
  in
  Result.iter_error (Http.fail 400) (Core.Config.check_precision precision);
  let engine =
    match engine with
    | Some e -> e
    | None -> (
        let name = Router.q_str rq "engine" ~default:"full" in
        match Core.Config.engine_of_name name with
        | Some e -> e
        | None ->
            Http.fail 400
              (Printf.sprintf
                 "unknown engine %S (expected full, sanitize or tiered)" name))
  in
  {
    Core.Config.default with
    Core.Config.precision;
    error_threshold = threshold;
    engine;
  }

(* an ad-hoc source's cache key: everything that determines its result,
   mirroring Fleet.job_key for suite benchmarks *)
let adhoc_key ~kind ~cfg ~iterations ~(inputs : float array) (src : string) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([ kind; src; string_of_int iterations; Core.Config.fingerprint cfg ]
          @ (Array.to_list inputs |> List.map (Printf.sprintf "%h")))))

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Sniff the body the way the CLI sniffs its PROGRAM argument:
   "bench:NAME" names a suite benchmark, a leading '(' is FPCore source,
   anything else is MiniC source. Raises [Http.Error] 400 on anything
   that does not compile. *)
let analyze_spec ?engine (rq : Http.request) : Fleet.spec =
  let cfg = cfg_of_query ?engine rq in
  let iterations = Router.q_int rq "iterations" ~default:16 in
  let seed = Router.q_int rq "seed" ~default:1 in
  if iterations < 1 || iterations > 10_000 then
    Http.fail 400 (Printf.sprintf "iterations %d out of range [1, 10000]" iterations);
  let body = String.trim rq.Http.rq_body in
  if body = "" then Http.fail 400 "empty request body";
  if has_prefix ~prefix:"bench:" body then begin
    let name = String.sub body 6 (String.length body - 6) in
    let regimes = Router.q_int rq "regimes" ~default:0 <> 0 in
    match Fpcore.Suite.enumerate ~iterations ~seed ~names:[ name ] () with
    | [ job ] ->
        let base = Fleet.bench_spec ~cfg job in
        let bench = job.Fpcore.Suite.job_bench in
        if (not regimes) || bench.Fpcore.Suite.group <> `Straight then base
        else
          (* same engine work, then regime inference at the official
             swept configuration; the key suffix keeps regime-annotated
             results out of the plain /analyze cache entry and back *)
          let work ~tick =
            let p = base.Fleet.sp_work ~tick in
            let r =
              Regime.infer ~points:Regime.official_points
                ~depth:Regime.official_depth ~opts:Regime.official_options
                ~seed bench
            in
            {
              p with
              Fleet.p_regime =
                Some
                  {
                    Fleet.rs_regimes =
                      Regime.selected_regimes r.Regime.re_selected
                        r.Regime.re_regimes;
                    rs_thresholds = Regime.thresholds r;
                    rs_error_table = Regime.table r;
                    rs_search_points = r.Regime.re_search_points;
                  };
            }
          in
          { base with Fleet.sp_key = base.Fleet.sp_key ^ ":regimes"; sp_work = work }
    | _ -> Http.fail 400 ("unknown benchmark: " ^ name)
    | exception Invalid_argument msg -> Http.fail 400 msg
  end
  else begin
    let inputs = Array.of_list (Router.q_floats rq "inputs" ~default:[]) in
    let name = Router.q_str rq "name" ~default:"<request>" in
    let kind, prog =
      if body.[0] = '(' then begin
        match Fpcore.Parse.parse_core body with
        | core -> ("fpcore", Fpcore.Compile.compile ~n_inputs:iterations core)
        | exception Fpcore.Parse.Error msg ->
            Http.fail 400 ("fpcore: " ^ msg)
        | exception Fpcore.Sexp.Parse_error msg ->
            Http.fail 400 ("fpcore: " ^ msg)
      end
      else
        match Minic.compile ~file:name rq.Http.rq_body with
        | prog -> ("minic", prog)
        | exception Minic.Compile_error msg -> Http.fail 400 msg
    in
    let work ~tick = Fleet.analyze ~cfg ~inputs ~tick ~name ~group:kind prog in
    {
      Fleet.sp_name = name;
      sp_group = kind;
      sp_key = adhoc_key ~kind ~cfg ~iterations ~inputs body;
      sp_engine = Core.Config.engine_name cfg.Core.Config.engine;
      sp_work = work;
    }
  end

let fuzz_iters_cap = 10_000

let fuzz_spec (rq : Http.request) ~timeout : Fleet.spec =
  let seed = Router.q_int rq "seed" ~default:42 in
  let iters = Router.q_int rq "iters" ~default:100 in
  if iters < 1 || iters > fuzz_iters_cap then
    Http.fail 400
      (Printf.sprintf "iters %d out of range [1, %d]" iters fuzz_iters_cap);
  let work ~tick:_ =
    let t = Fuzz.Campaign.run ~jobs:1 ?timeout ~seed ~iters () in
    let count p =
      List.length (List.filter p t.Fuzz.Campaign.t_entries)
    in
    let passed =
      count (fun e -> e.Fuzz.Campaign.e_status = Fuzz.Campaign.Passed)
    in
    let skipped =
      count (fun (e : Fuzz.Campaign.entry) ->
          match e.Fuzz.Campaign.e_status with
          | Fuzz.Campaign.Skipped _ -> true
          | _ -> false)
    in
    let failures = Fuzz.Campaign.failed t in
    let entries =
      List.map
        (fun (e : Fuzz.Campaign.entry) ->
          let oracle, detail =
            match e.Fuzz.Campaign.e_status with
            | Fuzz.Campaign.Divergent d ->
                (d.Fuzz.Oracle.d_oracle, d.Fuzz.Oracle.d_detail)
            | Fuzz.Campaign.Error msg -> ("error", msg)
            | Fuzz.Campaign.Passed | Fuzz.Campaign.Skipped _ -> ("", "")
          in
          Json.Obj
            [
              ("index", Json.Num (float_of_int e.Fuzz.Campaign.e_index));
              ("digest", Json.Str e.Fuzz.Campaign.e_digest);
              ("oracle", Json.Str oracle);
              ("detail", Json.Str detail);
            ])
        failures
    in
    let json =
      Json.Obj
        [
          ("seed", Json.Num (float_of_int seed));
          ("iters", Json.Num (float_of_int iters));
          ("passed", Json.Num (float_of_int passed));
          ("skipped", Json.Num (float_of_int skipped));
          ("divergent", Json.Num (float_of_int (List.length failures)));
          ("failures", Json.Arr entries);
        ]
    in
    {
      Fleet.p_metrics =
        {
          Fleet.m_blocks = 0;
          m_stmts = 0;
          m_stmts_executed = 0;
          m_fp_ops = 0;
          m_trace_nodes = 0;
          m_traces_materialized = 0;
          m_spots = 0;
          m_causes = List.length failures;
          m_compensations = 0;
          m_err_max = 0.0;
          m_escalations = 0;
          m_slice_stmts = 0;
        };
      p_summary =
        Printf.sprintf "fuzz seed %d: %d programs, %d divergent, %d skipped"
          seed iters (List.length failures) skipped;
      p_report = Json.to_string json;
      p_regime = None;
    }
  in
  {
    Fleet.sp_name = Printf.sprintf "fuzz:seed=%d:iters=%d" seed iters;
    sp_group = "fuzz";
    sp_key = "";  (* campaigns are cheap to re-run and rarely repeated *)
    sp_engine = "full";
    sp_work = work;
  }

(* ---------- handlers ---------- *)

let record t (o : Fleet.outcome) =
  Mutex.lock t.cache_mu;
  t.persisted <- o :: t.persisted;
  (match o.Fleet.o_status with
  | (Fleet.Done | Fleet.Cached) when o.Fleet.o_key <> "" ->
      Hashtbl.replace t.cache o.Fleet.o_key o
  | _ -> ());
  Mutex.unlock t.cache_mu;
  match t.shared with
  | Some shared -> Cachefile.publish shared o
  | None -> ()

let cached t key =
  if key = "" then None
  else begin
    Mutex.lock t.cache_mu;
    let o = Hashtbl.find_opt t.cache key in
    Mutex.unlock t.cache_mu;
    match (o, t.shared) with
    | (Some _ as hit), _ -> hit
    | None, None -> None
    | None, Some shared -> (
        (* a sibling shard may have computed it; tail the shared file *)
        match Cachefile.lookup shared key with
        | Some o ->
            Mutex.lock t.cache_mu;
            Hashtbl.replace t.cache key o;
            Mutex.unlock t.cache_mu;
            Some o
        | None -> None)
  end

let status_of_outcome (o : Fleet.outcome) =
  match o.Fleet.o_status with
  | Fleet.Done | Fleet.Cached -> 200
  | Fleet.Timed_out -> 504
  | Fleet.Failed _ -> 500

let outcome_response (o : Fleet.outcome) =
  Http.json_response (status_of_outcome o) (Fleet.Store.outcome_to_json o)

let overloaded_response t =
  Metrics.inc t.m_rejected [];
  Http.error_response 503
    ~headers:[ ("retry-after", "1") ]
    (Printf.sprintf "analysis queue is full (depth %d); retry shortly"
       t.cfg.queue)

(* submit to the pool with backpressure, await, record, respond *)
let run_spec t rq (sp : Fleet.spec) ~cacheable : Http.response =
  let timeout =
    match Router.q_float_opt rq "timeout" with
    | Some s -> Some s
    | None -> t.cfg.timeout
  in
  match cached t (if cacheable then sp.Fleet.sp_key else "") with
  | Some prev ->
      Metrics.inc t.m_cache_hits [];
      outcome_response
        {
          prev with
          Fleet.o_name = sp.Fleet.sp_name;
          o_group = sp.Fleet.sp_group;
          o_key = sp.Fleet.sp_key;
          o_engine = sp.Fleet.sp_engine;
          o_status = Fleet.Cached;
          o_wall_s = 0.0;
        }
  | None -> (
      if cacheable then Metrics.inc t.m_cache_misses [];
      match Fleet.Pool.submit t.pool ?timeout sp with
      | None -> overloaded_response t
      | Some ticket ->
          let o = Fleet.Pool.await t.pool ticket in
          t.count_job o;
          record t o;
          outcome_response o)

let handle_analyze t rq = run_spec t rq (analyze_spec rq) ~cacheable:true

(* same body sniffing and caching as /analyze, engine pinned to the
   sanitizer (an `engine` query parameter is ignored here) *)
let handle_sanitize t rq =
  run_spec t rq
    (analyze_spec ~engine:Core.Config.Sanitize rq)
    ~cacheable:true

let handle_fuzz t rq =
  let timeout =
    match Router.q_float_opt rq "timeout" with
    | Some s -> Some s
    | None -> t.cfg.timeout
  in
  run_spec t rq (fuzz_spec rq ~timeout) ~cacheable:false

let handle_healthz _t _rq = Http.text_response 200 "ok\n"

let handle_findings t _rq =
  match findings_feed t.cfg with
  | None -> Http.error_response 404 "no findings feed configured"
  | Some body ->
      Http.response
        ~headers:[ ("content-type", "application/x-ndjson") ]
        200 body

let handle_metrics t _rq =
  Http.response
    ~headers:
      [ ("content-type", "text/plain; version=0.0.4; charset=utf-8") ]
    200 (Metrics.render t.reg)

let routes t : Router.t =
  [
    ("POST", "/analyze", handle_analyze t);
    ("POST", "/sanitize", handle_sanitize t);
    ("POST", "/fuzz", handle_fuzz t);
    ("GET", "/healthz", handle_healthz t);
    ("GET", "/metrics", handle_metrics t);
    ("GET", "/findings", handle_findings t);
  ]

let known_endpoints =
  [ "/analyze"; "/sanitize"; "/fuzz"; "/healthz"; "/metrics"; "/findings" ]

let endpoint_label path =
  if List.mem path known_endpoints then path else "other"

(* ---------- the connection loop ---------- *)

let write_all fd (s : string) =
  let n = String.length s in
  let sent = ref 0 in
  (try
     while !sent < n do
       sent := !sent + Unix.write_substring fd s !sent (n - !sent)
     done
   with Unix.Unix_error _ -> () (* peer went away; nothing to salvage *))

(* 503 from the token bucket: same shape as the queue-full answer so
   clients retry the same way, Retry-After rounded up to whole seconds. *)
let ratelimited_response t ~wait =
  Metrics.inc t.m_ratelimited [];
  let after = max 1 (int_of_float (Float.ceil wait)) in
  Http.error_response 503
    ~headers:[ ("retry-after", string_of_int after) ]
    "rate limit exceeded; retry shortly"

(* Analysis traffic (POSTs) pays the per-client token bucket; reads —
   health probes, metric scrapes, feed tails — stay free so operators
   can always see a server that is busy saying 503. *)
let admit t ~peer (rq : Http.request) : Http.response option =
  match t.limiter with
  | None -> None
  | Some _ when rq.Http.rq_meth <> "POST" -> None
  | Some limiter -> (
      match Ratelimit.check limiter peer with
      | Ratelimit.Admit -> None
      | Ratelimit.Limit wait -> Some (ratelimited_response t ~wait))

let handle_connection t fd ~peer =
  let rd = Http.reader_of_fd fd in
  let send = write_all fd in
  let idle_wait () =
    match Unix.select [ fd ] [] [] t.cfg.idle_timeout with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | exception Unix.Unix_error _ -> false
  in
  let handler rq =
    let started = Unix.gettimeofday () in
    let resp =
      match admit t ~peer rq with
      | Some limited -> limited
      | None -> (
          try Router.dispatch (routes t) rq with
          | Http.Error (status, msg) -> Http.error_response status msg
          | e -> Http.error_response 500 (Printexc.to_string e))
    in
    let label = endpoint_label rq.Http.rq_path in
    Metrics.inc t.m_requests [ label; string_of_int resp.Http.rs_status ];
    Metrics.observe t.m_request_seconds ~labels:[ label ]
      (Unix.gettimeofday () -. started);
    if not t.cfg.quiet then
      Printf.eprintf "fpgrind serve: %s %s -> %d\n%!" rq.Http.rq_meth
        rq.Http.rq_path resp.Http.rs_status;
    resp
  in
  let on_error status =
    Metrics.inc t.m_requests [ "other"; string_of_int status ]
  in
  Http.session ~max_requests:t.cfg.keep_alive_requests
    ~max_body:t.cfg.max_body ~idle_wait ~on_error rd ~write:send ~handler;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let conn_begin t = Atomic.incr t.conns

let conn_end t =
  Mutex.lock t.conn_mu;
  Atomic.decr t.conns;
  Condition.broadcast t.conn_cond;
  Mutex.unlock t.conn_mu

(* ---------- lifecycle ---------- *)

let stop t =
  Atomic.set t.stop_flag true;
  (* nudge the accept loop out of select *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1) with Unix.Unix_error _ -> ()

let flush_store t =
  match t.cfg.store_path with
  | None -> ()
  | Some path ->
      Mutex.lock t.cache_mu;
      let outcomes = List.rev t.persisted in
      Mutex.unlock t.cache_mu;
      Fleet.Store.save path outcomes

(* Serve until [stop] (or a signal handler calling it) fires, then shut
   down gracefully: close the listener, let open connections finish
   (their queued jobs run to completion), drain the pool, flush the
   store. Returns when fully drained. *)
let run t =
  let rec accept_loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listen_fd; t.wake_r ] [] [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          if List.mem t.listen_fd ready then begin
            match Unix.accept t.listen_fd with
            | fd, addr ->
                (* the listener is non-blocking (shared-socket accept
                   races between shards); the connection must not be *)
                (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
                let peer =
                  match addr with
                  | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
                  | Unix.ADDR_UNIX s -> s
                in
                conn_begin t;
                ignore
                  (Thread.create
                     (fun fd ->
                       Fun.protect
                         ~finally:(fun () -> conn_end t)
                         (fun () ->
                           try handle_connection t fd ~peer with _ -> ()))
                     fd)
            | exception Unix.Unix_error _ -> ()
          end);
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conn_mu;
  while Atomic.get t.conns > 0 do
    Condition.wait t.conn_cond t.conn_mu
  done;
  Mutex.unlock t.conn_mu;
  Fleet.Pool.drain t.pool;
  flush_store t;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  if not t.cfg.quiet then
    Printf.eprintf "fpgrind serve: drained, store flushed, exiting\n%!"
