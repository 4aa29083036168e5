(* serve, client, loadgen: the HTTP analysis service, a client for it,
   and its open-loop load generator. *)

open Cmdliner

(* ---------- serve (the network analysis service) ---------- *)

let serve =
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
  let queue_arg =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded job-queue depth. When $(docv) jobs are already \
             waiting, new work is refused with 503 and a Retry-After \
             hint instead of queueing unboundedly.")
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
      shards keep_alive_requests idle_timeout rate_limit rate_burst () =
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
        { cfg with Serve.Server.store_path = None; shared_cache_path = store_path }
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
      Printf.printf "fpgrind serve: listening on http://%s:%d (jobs=%d queue=%d)\n%!"
        host (Serve.Server.port srv) jobs queue;
      Serve.Server.run srv;
      0
    end
  in
  Common.cmd "serve"
    ~doc:
      "Run the HTTP analysis service: keep-alive HTTP/1.1 with POST /analyze \
       and /fuzz behind a bounded queue with 503 backpressure, optional \
       pre-forked shards (--shards) with crash respawn and a shared result \
       cache, per-client rate limiting, GET /healthz, GET /findings for a \
       campaign feed, and GET /metrics in Prometheus text format."
    Term.(
      const run $ port_arg $ host_arg
      $ Common.jobs_arg ~doc:"Worker domains for analysis jobs."
      $ queue_arg
      $ Common.timeout_arg ~doc:"Default per-request analysis deadline."
      $ max_body_arg $ store_arg $ findings_arg
      $ Common.quiet_arg ~doc:"Suppress per-request log lines."
      $ shards_arg $ keep_alive_arg $ idle_timeout_arg $ rate_limit_arg
      $ rate_burst_arg)

(* ---------- client (talk to a running fpgrind serve) ---------- *)

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

(* --match: the response must equal the store's record of the same name
   and engine on every field but wall_s *)
let match_store store_path (body : string) : int =
  let resp = Json.of_string (String.trim body) in
  let got = strip_wall resp in
  let name = Json.get_str "name" resp in
  let resp_engine =
    match Json.member "engine" resp with Some (Json.Str s) -> s | _ -> "full"
  in
  let expected =
    match
      List.find_opt
        (fun (o : Fleet.outcome) -> o.Fleet.o_name = name)
        (Fleet.Store.load store_path)
    with
    | Some o ->
        (* a full-engine record says nothing about the sanitizer (and
           vice versa): comparing them would only ever report a
           meaningless mismatch *)
        if o.Fleet.o_engine <> resp_engine then
          failwith
            (Printf.sprintf
               "refusing to --match across engines: the response for %s \
                came from the %s engine but the record in %s came from the \
                %s engine"
               name resp_engine store_path o.Fleet.o_engine);
        strip_wall (Fleet.Store.outcome_to_json o)
    | None -> failwith (Printf.sprintf "no record named %s in %s" name store_path)
  in
  if Json.to_string got = Json.to_string expected then begin
    Printf.eprintf
      "match: response equals the stored record for %s (modulo wall_s)\n" name;
    0
  end
  else begin
    Printf.eprintf "MISMATCH for %s\n  server: %s\n  store:  %s\n" name
      (Json.to_string got) (Json.to_string expected);
    1
  end

let client =
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
    Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
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
    Arg.(value & opt int 42 & info [ "fuzz-seed" ] ~docv:"N" ~doc:"Fuzz seed.")
  in
  let engine_arg =
    Arg.(
      value & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Analysis engine for the analyze action: $(b,full), \
             $(b,sanitize) or $(b,tiered). Sent to the server as the \
             $(b,engine) query parameter.")
  in
  let regimes_arg =
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
  let run action target port host inputs iterations seed precision threshold
      match_path iters fuzz_seed timeout engine regimes repeat () =
    let enc = Serve.Http.percent_encode in
    let repeat = max 1 repeat in
    Option.iter Common.check_engine_name engine;
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
    let timeout_q =
      match timeout with
      | None -> ""
      | Some s -> "&timeout=" ^ enc (Printf.sprintf "%g" s)
    in
    let code =
      match action with
      | (`Health | `Metrics | `Findings | `Fuzz) as action ->
          let meth, path =
            match action with
            | `Health -> ("GET", "/healthz")
            | `Metrics -> ("GET", "/metrics")
            | `Findings -> ("GET", "/findings")
            | `Fuzz ->
                ( "POST",
                  Printf.sprintf "/fuzz?seed=%d&iters=%d%s" fuzz_seed iters
                    timeout_q )
          in
          let r = send ~meth ~path () in
          print_string r.Serve.Client.c_body;
          if r.Serve.Client.c_status / 100 = 2 then 0 else 1
      | (`Analyze | `Sanitize) as action -> (
          let verb, endpoint =
            match action with
            | `Analyze -> ("analyze", "/analyze")
            | `Sanitize -> ("sanitize", "/sanitize")
          in
          let target =
            match target with
            | Some t -> t
            | None ->
                failwith (Printf.sprintf "client %s needs a PROGRAM argument" verb)
          in
          let body =
            if String.length target > 6 && String.sub target 0 6 = "bench:"
            then target
            else Common.read_file target
          in
          let path =
            Printf.sprintf "%s?iterations=%d&seed=%d&precision=%d&threshold=%s%s%s%s%s"
              endpoint iterations seed precision
              (enc (Printf.sprintf "%.17g" threshold))
              (match inputs with
              | [] -> ""
              | fs ->
                  "&inputs="
                  ^ enc (String.concat "," (List.map (Printf.sprintf "%h") fs)))
              timeout_q
              (match engine with Some e -> "&engine=" ^ enc e | None -> "")
              (if regimes then "&regimes=1" else "")
          in
          let r = send ~meth:"POST" ~path ~body () in
          print_string r.Serve.Client.c_body;
          if r.Serve.Client.c_status / 100 <> 2 then 1
          else
            match match_path with
            | None -> 0
            | Some store_path -> match_store store_path r.Serve.Client.c_body)
    in
    if Lazy.is_val conn then Serve.Client.close (Lazy.force conn);
    code
  in
  Common.cmd "client"
    ~doc:
      "Talk to a running fpgrind serve: submit an analysis or fuzz campaign, \
       or fetch /healthz or /metrics."
    Term.(
      const run $ action_arg $ target_arg $ port_arg $ host_arg
      $ Common.inputs_arg $ Common.iterations_arg
      $ Common.seed_arg ~default:1 ~doc:"Input sampling seed."
      $ Common.precision_arg $ Common.threshold_arg $ match_arg $ iters_arg
      $ fuzz_seed_arg
      $ Common.timeout_arg ~doc:"Per-request analysis deadline."
      $ engine_arg $ regimes_arg $ repeat_arg)

(* ---------- loadgen ---------- *)

(* http://HOST:PORT — no path/userinfo, this is a bench driver not a
   general HTTP client *)
let parse_url (u : string) : string * int =
  let prefix = "http://" in
  let plen = String.length prefix in
  if String.length u <= plen || String.sub u 0 plen <> prefix then
    failwith (Printf.sprintf "expected http://HOST:PORT, got %s" u);
  let rest = String.sub u plen (String.length u - plen) in
  let rest =
    if String.length rest > 0 && rest.[String.length rest - 1] = '/' then
      String.sub rest 0 (String.length rest - 1)
    else rest
  in
  match String.rindex_opt rest ':' with
  | None -> (rest, 80)
  | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && host <> "" -> (host, p)
      | _ -> failwith (Printf.sprintf "bad port in %s" u))

let loadgen =
  let url_arg =
    Arg.(
      value & opt string "http://127.0.0.1:8080"
      & info [ "url" ] ~docv:"URL" ~doc:"Server base URL, $(b,http://HOST:PORT).")
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
  let engine_arg =
    Arg.(
      value & opt string "sanitize"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Analysis engine query parameter sent with every request.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 8
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Sampled inputs per analysis request.")
  in
  let run url rate duration seed mix conns engine iterations json_path () =
    let host, port = parse_url url in
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
    if report.Loadgen.r_errors_5xx > 0 || report.Loadgen.r_conn_errors > 0 then 1
    else 0
  in
  Common.cmd "loadgen"
    ~doc:
      "Offer seeded open-loop load to a running fpgrind serve and report \
       p50/p90/p99 latency, throughput and error rates as JSON. The request \
       stream is a pure function of --seed and --mix; latency is measured \
       from each request's scheduled arrival time, so server stalls show up \
       as queueing delay instead of silently slowing the generator (no \
       coordinated omission)."
    Term.(
      const run $ url_arg $ rate_arg $ duration_arg
      $ Common.seed_arg ~default:42
          ~doc:
            "Request-stream seed; the body of request i is a pure function \
             of (seed, i, mix), so the same seed offers the same bodies \
             regardless of timing or concurrency."
      $ mix_arg $ conns_arg $ engine_arg $ iterations_arg
      $ Common.json_arg ~doc:"Also write the report JSON to $(docv).")
