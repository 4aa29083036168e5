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
  m_queue_depth : Metrics.gauge;
  m_in_flight : Metrics.gauge;
  m_cache_hits : Metrics.counter;
  m_cache_misses : Metrics.counter;
  m_rejected : Metrics.counter;  (* queue-full 503s *)
  m_jobs : Metrics.counter;  (* fleet jobs by status, via the observer *)
  m_job_seconds : Metrics.histogram;
  m_sanitize_jobs : Metrics.counter;  (* sanitizer-engine jobs by status *)
  m_sanitize_findings : Metrics.counter;  (* findings those jobs reported *)
  m_tiered_jobs : Metrics.counter;  (* tiered-engine jobs by status *)
  m_tiered_escalations : Metrics.counter;  (* jobs that ran pass 2 *)
  m_tiered_slice_stmts : Metrics.counter;  (* statements escalated *)
  m_store_corrupt : Metrics.gauge;
  m_store_torn : Metrics.counter;  (* torn store records, monotone *)
  m_campaign_findings : Metrics.gauge;  (* findings in the feed *)
  m_campaign_feed_bytes : Metrics.gauge;
  m_blocks_compiled : Metrics.counter;  (* Vex superblocks pre-decoded *)
  m_compile_hits : Metrics.counter;  (* compile-cache hits *)
  m_regimes : Metrics.counter;  (* regimes inferred by regime jobs *)
  m_regime_points : Metrics.counter;  (* point evals spent by the search *)
  m_active_conns : Metrics.gauge;  (* connections currently open *)
  m_ratelimited : Metrics.counter;  (* token-bucket 503s *)
  m_shard_restarts : Metrics.gauge;  (* respawns, via the parent's status file *)
  shared : Cachefile.t option;  (* cross-shard result cache *)
  limiter : Ratelimit.t option;
  mutable torn_seen : int;  (* last Store.corrupt_tail_total observed *)
  mutable compiled_seen : int;  (* last Compile.blocks_compiled_total *)
  mutable compile_hits_seen : int;  (* last Compile.cache_hits_total *)
  cache_mu : Mutex.t;
  cache : (string, Fleet.outcome) Hashtbl.t;
  mutable persisted : Fleet.outcome list;  (* newest first *)
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conn_mu : Mutex.t;
  conn_cond : Condition.t;
  mutable conns : int;
}

let port t = t.bound_port

(* ---------- creation ---------- *)

let install_observer t =
  Fleet.set_observer
    {
      Fleet.ob_started = (fun _ -> ());
      Fleet.ob_finished =
        (fun (o : Fleet.outcome) ->
          Metrics.inc t.m_jobs [ Fleet.Store.status_to_string o.Fleet.o_status ];
          Metrics.observe t.m_job_seconds o.Fleet.o_wall_s;
          if o.Fleet.o_engine = "sanitize" then begin
            Metrics.inc t.m_sanitize_jobs
              [ Fleet.Store.status_to_string o.Fleet.o_status ];
            match o.Fleet.o_payload with
            | Some p ->
                Metrics.inc ~by:(float_of_int p.Fleet.p_metrics.Fleet.m_causes)
                  t.m_sanitize_findings []
            | None -> ()
          end;
          if o.Fleet.o_engine = "tiered" then begin
            Metrics.inc t.m_tiered_jobs
              [ Fleet.Store.status_to_string o.Fleet.o_status ];
            match o.Fleet.o_payload with
            | Some p ->
                Metrics.inc
                  ~by:(float_of_int p.Fleet.p_metrics.Fleet.m_escalations)
                  t.m_tiered_escalations [];
                Metrics.inc
                  ~by:(float_of_int p.Fleet.p_metrics.Fleet.m_slice_stmts)
                  t.m_tiered_slice_stmts []
            | None -> ()
          end;
          match o.Fleet.o_payload with
          | Some { Fleet.p_regime = Some rs; _ } ->
              Metrics.inc
                ~by:(float_of_int rs.Fleet.rs_regimes)
                t.m_regimes [];
              Metrics.inc
                ~by:(float_of_int rs.Fleet.rs_search_points)
                t.m_regime_points []
          | _ -> ());
    }

let create (cfg : config) : t =
  let reg = Metrics.create () in
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
  let m_queue_depth =
    Metrics.gauge reg ~help:"Jobs waiting in the bounded analysis queue."
      "fpgrind_queue_depth"
  in
  let m_in_flight =
    Metrics.gauge reg ~help:"Jobs currently running on pool workers."
      "fpgrind_jobs_in_flight"
  in
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
  let m_store_corrupt =
    Metrics.gauge reg
      ~help:"Truncated trailing JSONL store records skipped since start."
      "fpgrind_store_corrupt_lines_total"
  in
  let m_store_torn =
    Metrics.counter reg
      ~help:
        "Torn JSONL store records skipped by lenient loads. Monotone \
         counter view of the same signal as the corrupt-lines gauge."
      "fpgrind_store_torn_records_total"
  in
  let m_campaign_findings =
    Metrics.gauge reg
      ~help:"Findings currently in the campaign feed served by /findings."
      "fpgrind_campaign_findings_total"
  in
  let m_campaign_feed_bytes =
    Metrics.gauge reg ~help:"Size of the campaign findings feed in bytes."
      "fpgrind_campaign_feed_bytes"
  in
  let m_blocks_compiled =
    Metrics.counter reg
      ~help:"Vex superblocks pre-decoded into flat compiled statement streams."
      "fpgrind_blocks_compiled_total"
  in
  let m_compile_hits =
    Metrics.counter reg
      ~help:"Program executions served from the compiled-block cache."
      "fpgrind_compile_cache_hits_total"
  in
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
  let m_active_conns =
    Metrics.gauge reg ~help:"Client connections currently open."
      "fpgrind_active_connections"
  in
  let m_ratelimited =
    Metrics.counter reg
      ~help:"Requests refused with 503 by the per-client token bucket."
      "fpgrind_ratelimited_total"
  in
  let m_shard_restarts =
    Metrics.gauge reg
      ~help:
        "Shard workers respawned by the parent after a crash or kill \
         (0 when not running under the shard layer)."
      "fpgrind_shard_restarts_total"
  in
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
  let t =
    {
      cfg;
      pool = Fleet.Pool.create ~queue:cfg.queue ~jobs:cfg.jobs ();
      reg;
      m_requests;
      m_request_seconds;
      m_queue_depth;
      m_in_flight;
      m_cache_hits;
      m_cache_misses;
      m_rejected;
      m_jobs;
      m_job_seconds;
      m_sanitize_jobs;
      m_sanitize_findings;
      m_tiered_jobs;
      m_tiered_escalations;
      m_tiered_slice_stmts;
      m_store_corrupt;
      m_store_torn;
      m_campaign_findings;
      m_campaign_feed_bytes;
      m_blocks_compiled;
      m_compile_hits;
      m_regimes;
      m_regime_points;
      m_active_conns;
      m_ratelimited;
      m_shard_restarts;
      shared = Option.map Cachefile.create cfg.shared_cache_path;
      limiter =
        Option.map
          (fun rate -> Ratelimit.create ~rate ~burst:cfg.rate_burst)
          cfg.rate_limit;
      torn_seen = 0;
      compiled_seen = 0;
      compile_hits_seen = 0;
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
      conns = 0;
    }
  in
  install_observer t;
  (* materialize the unlabeled torn-records series so a clean server
     still renders the counter at 0 *)
  Metrics.inc ~by:0.0 t.m_store_torn [];
  Metrics.inc ~by:0.0 t.m_blocks_compiled [];
  Metrics.inc ~by:0.0 t.m_compile_hits [];
  Metrics.inc ~by:0.0 t.m_ratelimited [];
  t

(* ---------- building analysis jobs from request bodies ---------- *)

let max_steps = 200_000_000 (* same budget as Fleet.bench_spec *)

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
  if precision < 53 || precision > 65536 then
    Http.fail 400 (Printf.sprintf "precision %d out of range [53, 65536]" precision);
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
    let work ~tick =
      match cfg.Core.Config.engine with
      | Core.Config.Full ->
          let nodes0 = Core.Trace.created_in_domain () in
          let mat0 = Core.Trace.materialized_in_domain () in
          let r = Core.Analysis.analyze ~cfg ~max_steps ~inputs ~tick prog in
          Fleet.payload_for ~name ~group:kind ~nodes0 ~mat0 r
      | Core.Config.Sanitize ->
          let r = Sanitize.Sexec.run ~max_steps ~inputs ~tick cfg prog in
          Fleet.san_payload_for ~name ~group:kind r
      | Core.Config.Tiered ->
          let nodes0 = Core.Trace.created_in_domain () in
          let mat0 = Core.Trace.materialized_in_domain () in
          let r = Tiered.analyze ~cfg ~max_steps ~inputs ~tick prog in
          Fleet.tiered_payload_for ~name ~group:kind ~nodes0 ~mat0 r
    in
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

(* The campaign findings feed: the raw append-only JSONL file, served
   verbatim so a consumer sees exactly what the campaign wrote (the
   byte-identity contract extends to the wire). An unconfigured server
   404s; a configured one whose campaign has found nothing yet serves
   an empty feed. *)
let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let findings_feed t : string option =
  match t.cfg.findings_path with
  | None -> None
  | Some path ->
      Some (if Sys.file_exists path then read_whole_file path else "")

let handle_findings t _rq =
  match findings_feed t with
  | None -> Http.error_response 404 "no findings feed configured"
  | Some body ->
      Http.response
        ~headers:[ ("content-type", "application/x-ndjson") ]
        200 body

let update_campaign_metrics t =
  match findings_feed t with
  | None -> ()
  | Some body ->
      let findings =
        List.length
          (List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' body))
      in
      Metrics.set t.m_campaign_findings (float_of_int findings);
      Metrics.set t.m_campaign_feed_bytes (float_of_int (String.length body))

(* The shard parent's view of the world, for this worker's /metrics.
   Written atomically (temp + rename) by Shard.run; absent or torn files
   read as 0 restarts. *)
let shard_restarts t : int =
  match t.cfg.shard_status_path with
  | None -> 0
  | Some path -> (
      if not (Sys.file_exists path) then 0
      else
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | src -> (
            match Json.of_string (String.trim src) with
            | j -> Json.get_int "restarts" j
            | exception _ -> 0)
        | exception Sys_error _ -> 0)

let handle_metrics t _rq =
  Metrics.set t.m_queue_depth (float_of_int (Fleet.Pool.queue_depth t.pool));
  Metrics.set t.m_in_flight (float_of_int (Fleet.Pool.in_flight t.pool));
  Mutex.lock t.conn_mu;
  Metrics.set t.m_active_conns (float_of_int t.conns);
  Mutex.unlock t.conn_mu;
  Metrics.set t.m_shard_restarts (float_of_int (shard_restarts t));
  let torn = Fleet.Store.corrupt_tail_total () in
  Metrics.set t.m_store_corrupt (float_of_int torn);
  (* counters are inc-only, so surface the monotone total as a delta
     against the last scrape *)
  if torn > t.torn_seen then begin
    Metrics.inc ~by:(float_of_int (torn - t.torn_seen)) t.m_store_torn [];
    t.torn_seen <- torn
  end;
  let compiled = Vex.Compile.blocks_compiled_total () in
  if compiled > t.compiled_seen then begin
    Metrics.inc
      ~by:(float_of_int (compiled - t.compiled_seen))
      t.m_blocks_compiled [];
    t.compiled_seen <- compiled
  end;
  let hits = Vex.Compile.cache_hits_total () in
  if hits > t.compile_hits_seen then begin
    Metrics.inc ~by:(float_of_int (hits - t.compile_hits_seen)) t.m_compile_hits [];
    t.compile_hits_seen <- hits
  end;
  update_campaign_metrics t;
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

let conn_begin t =
  Mutex.lock t.conn_mu;
  t.conns <- t.conns + 1;
  Mutex.unlock t.conn_mu

let conn_end t =
  Mutex.lock t.conn_mu;
  t.conns <- t.conns - 1;
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
  while t.conns > 0 do
    Condition.wait t.conn_cond t.conn_mu
  done;
  Mutex.unlock t.conn_mu;
  Fleet.Pool.drain t.pool;
  flush_store t;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  Fleet.clear_observer ();
  if not t.cfg.quiet then
    Printf.eprintf "fpgrind serve: drained, store flushed, exiting\n%!"
