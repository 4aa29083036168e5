(* fpgrind.loadgen + the shard-mode shared cache: the HDR-style latency
   histogram, the deterministic open-loop request plan, mix parsing, the
   advisory-locked cross-shard cache file, and a short live loadgen run
   against an in-process server. *)

module Hist = Loadgen.Hist
module Cachefile = Serve.Cachefile

(* ---------- the latency histogram ---------- *)

let test_hist_basic () =
  let h = Hist.create () in
  Alcotest.(check int) "empty" 0 (Hist.count h);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Hist.quantile h 0.5));
  List.iter (Hist.record h) [ 0.001; 0.002; 0.003; 0.004 ];
  Alcotest.(check int) "count" 4 (Hist.count h);
  (* bucket upper edges have at most ~6% relative error (4 sub-bits) *)
  let near q expect =
    let v = Hist.quantile h q in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f ~ %g (got %g)" (q *. 100.0) expect v)
      true
      (v >= expect *. 0.99 && v <= expect *. 1.07)
  in
  near 0.25 0.001;
  near 0.50 0.002;
  near 1.0 0.004;
  Alcotest.(check bool) "mean in range" true
    (let m = Hist.mean h in
     m > 0.002 && m < 0.003);
  Alcotest.(check bool) "max recorded" true (Hist.max_value h >= 0.004)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.record a) [ 0.010; 0.020 ];
  List.iter (Hist.record b) [ 0.030; 0.040 ];
  let m = Hist.create () in
  Hist.merge m a;
  Hist.merge m b;
  Alcotest.(check int) "merged count" 4 (Hist.count m);
  (* merging is bucket-wise addition, so quantiles of the merge equal
     quantiles of the union *)
  let u = Hist.create () in
  List.iter (Hist.record u) [ 0.010; 0.020; 0.030; 0.040 ];
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "q=%g matches union" q)
        (Hist.quantile u q) (Hist.quantile m q))
    [ 0.25; 0.5; 0.75; 0.99 ]

let test_hist_extremes () =
  let h = Hist.create () in
  Hist.record h 0.0;
  Hist.record h (-1.0);  (* clamped, not dropped: a fast clock can tick backwards *)
  Hist.record h 1e9;  (* absurd latencies land in the top bucket, not outside *)
  Alcotest.(check int) "all recorded" 3 (Hist.count h);
  Alcotest.(check bool) "quantile finite" true
    (not (Float.is_nan (Hist.quantile h 0.99)))

(* ---------- the deterministic request plan ---------- *)

let test_plan_deterministic () =
  let cfg =
    {
      Loadgen.default_config with
      Loadgen.lg_rate = 40.0;
      lg_duration = 2.0;
      lg_seed = 7;
    }
  in
  let p1 = Loadgen.plan cfg and p2 = Loadgen.plan cfg in
  Alcotest.(check int) "rate * duration requests" 80 (Array.length p1);
  Array.iteri
    (fun i (s1 : Loadgen.spec) ->
      let s2 = p2.(i) in
      Alcotest.(check string) "path identical" s1.Loadgen.sp_path s2.Loadgen.sp_path;
      Alcotest.(check string) "body identical" s1.Loadgen.sp_body s2.Loadgen.sp_body)
    p1;
  (* a different seed is a different stream *)
  let p3 = Loadgen.plan { cfg with Loadgen.lg_seed = 8 } in
  Alcotest.(check bool) "seed changes the stream" true
    (Array.exists2 (fun (a : Loadgen.spec) (b : Loadgen.spec) ->
         a.Loadgen.sp_body <> b.Loadgen.sp_body)
       p1 p3);
  (* the mix is honored: an all-bench plan only posts bench: bodies *)
  let bench_only =
    Loadgen.plan { cfg with Loadgen.lg_mix = [ (1, Loadgen.Bench) ] }
  in
  Array.iter
    (fun (s : Loadgen.spec) ->
      Alcotest.(check bool) "bench body" true
        (String.length s.Loadgen.sp_body > 6
        && String.sub s.Loadgen.sp_body 0 6 = "bench:"))
    bench_only;
  (* generated programs print as parseable MiniC *)
  let minic_only =
    Loadgen.plan { cfg with Loadgen.lg_mix = [ (1, Loadgen.Minic) ] }
  in
  Array.iter
    (fun (s : Loadgen.spec) ->
      match Minic.parse ~file:"lg.mc" s.Loadgen.sp_body with
      | (_ : Minic.Ast.program) -> ()
      | exception Minic.Compile_error _ ->
          Alcotest.fail "generated body does not parse")
    minic_only

let test_mix_parsing () =
  Alcotest.(check string)
    "round trip" "bench=3,minic=1"
    (Loadgen.mix_to_string (Loadgen.mix_of_string "bench=3,minic=1"));
  Alcotest.(check string)
    "bare kind weighs 1" "minic=1"
    (Loadgen.mix_to_string (Loadgen.mix_of_string "minic"));
  Alcotest.(check string)
    "zero weights dropped" "bench=2"
    (Loadgen.mix_to_string (Loadgen.mix_of_string "bench=2,minic=0"));
  (match Loadgen.mix_of_string "bench=0,minic=0" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "all-zero mix accepted");
  match Loadgen.mix_of_string "quadrature=1" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown mix kind accepted"

(* ---------- the cross-shard cache file ---------- *)

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

let outcome ?(status = Fleet.Done) ~key name =
  {
    Fleet.o_name = name;
    o_group = "test";
    o_key = key;
    o_engine = "full";
    o_status = status;
    o_wall_s = 0.1;
    o_payload =
      (match status with Fleet.Failed _ -> None | _ -> Some (ok_payload name));
  }

let test_cachefile_cross_handle () =
  let path = Filename.temp_file "shardcache" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* two handles stand in for two shard processes *)
      let a = Cachefile.create path and b = Cachefile.create path in
      Alcotest.(check bool) "miss before publish" true
        (Cachefile.lookup b "k1" = None);
      Cachefile.publish a (outcome ~key:"k1" "one");
      (match Cachefile.lookup b "k1" with
      | Some o -> Alcotest.(check string) "b sees a's record" "one" o.Fleet.o_name
      | None -> Alcotest.fail "publish not visible across handles");
      (* keyless and non-Done outcomes are not shared *)
      Cachefile.publish a (outcome ~key:"" "anon");
      Cachefile.publish a (outcome ~status:(Fleet.Failed "boom") ~key:"k2" "bad");
      Alcotest.(check bool) "failure not shared" true
        (Cachefile.lookup b "k2" = None);
      (* the file is a valid Fleet store: one Done record *)
      let records = Fleet.Store.load path in
      Alcotest.(check int) "store-compatible" 1 (List.length records))

let test_cachefile_torn_lines () =
  let path = Filename.temp_file "shardcache" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let a = Cachefile.create path in
      Cachefile.publish a (outcome ~key:"k1" "one");
      let reader = Cachefile.create path in
      (* a shard SIGKILLed mid-write leaves a torn (newline-less) tail:
         the reader must keep everything before it and not consume it *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"name\": \"torn";
      close_out oc;
      (match Cachefile.lookup reader "k1" with
      | Some _ -> ()
      | None -> Alcotest.fail "intact record lost to a torn tail");
      Alcotest.(check int) "torn tail not yet counted" 0
        (Cachefile.torn_total reader);
      (* more bytes arrive: the merged garbage line completes, is
         skipped and counted, and later records still index *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "garbage\n";
      close_out oc;
      Cachefile.publish a (outcome ~key:"k3" "three");
      (match Cachefile.lookup reader "k3" with
      | Some _ -> ()
      | None -> Alcotest.fail "record after garbage line not indexed");
      Alcotest.(check int) "garbage line counted" 1
        (Cachefile.torn_total reader))

(* ---------- a live open-loop run ---------- *)

let test_live_run () =
  let srv =
    Serve.Server.create
      { Serve.Server.default_config with port = 0; queue = 32; quiet = true }
  in
  let th = Thread.create Serve.Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Thread.join th)
    (fun () ->
      let cfg =
        {
          Loadgen.default_config with
          Loadgen.lg_port = Serve.Server.port srv;
          lg_rate = 40.0;
          lg_duration = 0.5;
          lg_conns = 2;
          lg_mix = [ (1, Loadgen.Bench) ];
          lg_iterations = 2;
        }
      in
      let r = Loadgen.run cfg in
      Alcotest.(check int) "all requests offered" 20 r.Loadgen.r_requests;
      Alcotest.(check int)
        "every request answered" 20
        (r.Loadgen.r_ok + r.Loadgen.r_throttled);
      Alcotest.(check int) "no 5xx" 0 r.Loadgen.r_errors_5xx;
      Alcotest.(check int) "no transport errors" 0 r.Loadgen.r_conn_errors;
      Alcotest.(check bool) "some succeeded" true (r.Loadgen.r_ok >= 1);
      Alcotest.(check int)
        "every completion has a latency sample" 20
        (Hist.count r.Loadgen.r_hist);
      (* the report JSON carries the latency story *)
      let j = Loadgen.to_json cfg r in
      let lat =
        match Json.member "latency_ms" j with
        | Some (Json.Obj kvs) -> kvs
        | _ -> Alcotest.fail "latency_ms missing"
      in
      List.iter
        (fun k ->
          match List.assoc_opt k lat with
          | Some (Json.Num v) ->
              Alcotest.(check bool) (k ^ " positive") true (v > 0.0)
          | _ -> Alcotest.fail (k ^ " missing"))
        [ "p50"; "p90"; "p99"; "mean"; "max" ])

let () =
  Alcotest.run "loadgen"
    [
      ( "hist",
        [
          Alcotest.test_case "record and quantile" `Quick test_hist_basic;
          Alcotest.test_case "merge equals union" `Quick test_hist_merge;
          Alcotest.test_case "extreme values clamp" `Quick test_hist_extremes;
        ] );
      ( "plan",
        [
          Alcotest.test_case "same seed, same stream" `Quick
            test_plan_deterministic;
          Alcotest.test_case "mix parsing" `Quick test_mix_parsing;
        ] );
      ( "cachefile",
        [
          Alcotest.test_case "cross-handle publish" `Quick
            test_cachefile_cross_handle;
          Alcotest.test_case "torn lines tolerated" `Quick
            test_cachefile_torn_lines;
        ] );
      ( "live",
        [ Alcotest.test_case "open-loop run" `Quick test_live_run ] );
    ]
