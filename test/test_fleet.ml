(* fpgrind.fleet: the parallel batch-analysis engine.

   Covers the fault-isolation contract (a raising job and a timed-out
   job become structured outcomes, the rest of the fleet completes), the
   determinism contract (-j 4 output equals -j 1 output), the JSONL
   store round trip, and the content-hash result cache. *)

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

let spec name work =
  {
    Fleet.sp_name = name;
    sp_group = "test";
    sp_key = "";
    sp_engine = "full";
    sp_work = work;
  }

(* ---------- fault isolation ---------- *)

let test_fault_isolation () =
  let specs =
    [
      spec "good-1" (fun ~tick:_ -> ok_payload "good-1");
      spec "raises" (fun ~tick:_ -> failwith "injected failure");
      (* spins on the tick the way a diverging benchmark would; the
         deadline below is already expired when the job starts, so the
         first checked tick raises *)
      spec "diverges" (fun ~tick ->
          while true do
            tick ()
          done;
          assert false);
      spec "good-2" (fun ~tick:_ -> ok_payload "good-2");
    ]
  in
  let outcomes = Fleet.run ~jobs:2 ~timeout:0.0 specs in
  Alcotest.(check int) "all jobs reported" 4 (List.length outcomes);
  Alcotest.(check (list string))
    "submission order preserved"
    [ "good-1"; "raises"; "diverges"; "good-2" ]
    (List.map (fun (o : Fleet.outcome) -> o.Fleet.o_name) outcomes);
  let status name =
    (List.find (fun (o : Fleet.outcome) -> o.Fleet.o_name = name) outcomes)
      .Fleet.o_status
  in
  (match status "raises" with
  | Fleet.Failed msg ->
      Alcotest.(check bool)
        "failure message captured" true
        (let re = Str.regexp_string "injected failure" in
         try
           ignore (Str.search_forward re msg 0);
           true
         with Not_found -> false)
  | _ -> Alcotest.fail "raising job not marked failed");
  (match status "diverges" with
  | Fleet.Timed_out -> ()
  | _ -> Alcotest.fail "diverging job not marked timeout");
  Alcotest.(check bool) "good-1 done" true (status "good-1" = Fleet.Done);
  Alcotest.(check bool) "good-2 done" true (status "good-2" = Fleet.Done)

(* A real looping FPCore benchmark under a tiny deadline: the timeout
   must fire from inside [Analysis.analyze] via the tick plumbing. *)
let test_benchmark_timeout () =
  let job =
    List.hd (Fpcore.Suite.enumerate ~iterations:4 ~names:[ "arclength" ] ())
  in
  let sp = Fleet.bench_spec ~cfg:Core.Config.fast job in
  let outcomes = Fleet.run ~jobs:1 ~timeout:0.0 [ sp ] in
  match (List.hd outcomes).Fleet.o_status with
  | Fleet.Timed_out -> ()
  | _ -> Alcotest.fail "looping benchmark with expired deadline did not time out"

(* ---------- determinism ---------- *)

let test_determinism () =
  let specs () =
    Fpcore.Suite.enumerate ~iterations:4
      ~names:
        [ "intro-example"; "nmse-p331"; "verhulst"; "midpoint-naive";
          "logistic-map"; "newton-sqrt" ]
      ()
    |> List.map (Fleet.bench_spec ~cfg:Core.Config.fast)
  in
  let render outcomes =
    List.map
      (fun (o : Fleet.outcome) ->
        match o.Fleet.o_payload with
        | Some p -> p.Fleet.p_summary ^ "\n" ^ p.Fleet.p_report
        | None -> o.Fleet.o_name ^ ": no payload")
      outcomes
  in
  let seq = Fleet.run ~jobs:1 (specs ()) in
  let par = Fleet.run ~jobs:4 (specs ()) in
  Alcotest.(check (list string))
    "-j 4 summaries and reports equal -j 1" (render seq) (render par)

(* ---------- JSONL store ---------- *)

let test_json_roundtrip () =
  let check_roundtrip (o : Fleet.outcome) =
    let o' =
      Fleet.Store.outcome_of_json
        (Json.of_string (Json.to_string (Fleet.Store.outcome_to_json o)))
    in
    Alcotest.(check string) "name" o.Fleet.o_name o'.Fleet.o_name;
    Alcotest.(check string) "key" o.Fleet.o_key o'.Fleet.o_key;
    Alcotest.(check string) "engine" o.Fleet.o_engine o'.Fleet.o_engine;
    Alcotest.(check bool) "status" true (o.Fleet.o_status = o'.Fleet.o_status);
    match (o.Fleet.o_payload, o'.Fleet.o_payload) with
    | Some p, Some p' ->
        Alcotest.(check string) "summary" p.Fleet.p_summary p'.Fleet.p_summary;
        Alcotest.(check string) "report" p.Fleet.p_report p'.Fleet.p_report;
        Alcotest.(check bool)
          "metrics" true
          (p.Fleet.p_metrics = p'.Fleet.p_metrics)
    | None, None -> ()
    | _ -> Alcotest.fail "payload presence changed in round trip"
  in
  check_roundtrip
    {
      Fleet.o_name = "quote\"and\\newline\n";
      o_group = "straight-line";
      o_key = "abc123";
      o_engine = "full";
      o_status = Fleet.Done;
      o_wall_s = 0.25;
      o_payload = Some (ok_payload "rt");
    };
  check_roundtrip
    {
      Fleet.o_name = "boom";
      o_group = "looping";
      o_key = "";
      o_engine = "sanitize";
      o_status = Fleet.Failed "Failure(\"injected\")";
      o_wall_s = 0.0;
      o_payload = None;
    }

let test_store_and_cache () =
  let path = Filename.temp_file "fleet_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let specs () =
        Fpcore.Suite.enumerate ~iterations:4
          ~names:[ "intro-example"; "verhulst" ]
          ()
        |> List.map (Fleet.bench_spec ~cfg:Core.Config.fast)
      in
      let first = Fleet.run ~jobs:2 (specs ()) in
      Fleet.Store.save path first;
      let loaded = Fleet.Store.load path in
      Alcotest.(check int) "store holds every job" 2 (List.length loaded);
      let second =
        Fleet.run ~jobs:2 ~cache:(Fleet.Store.cache_of_file path) (specs ())
      in
      List.iter
        (fun (o : Fleet.outcome) ->
          Alcotest.(check bool)
            (o.Fleet.o_name ^ " served from cache")
            true
            (o.Fleet.o_status = Fleet.Cached))
        second;
      List.iter2
        (fun (a : Fleet.outcome) (b : Fleet.outcome) ->
          match (a.Fleet.o_payload, b.Fleet.o_payload) with
          | Some pa, Some pb ->
              Alcotest.(check string)
                "cached summary unchanged" pa.Fleet.p_summary pb.Fleet.p_summary
          | _ -> Alcotest.fail "cached outcome lost its payload")
        first second;
      (* a changed config changes the key, so nothing may be reused *)
      let recfg =
        Fpcore.Suite.enumerate ~iterations:4
          ~names:[ "intro-example"; "verhulst" ]
          ()
        |> List.map
             (Fleet.bench_spec
                ~cfg:{ Core.Config.fast with Core.Config.precision = 192 })
      in
      let third =
        Fleet.run ~jobs:1 ~cache:(Fleet.Store.cache_of_file path) recfg
      in
      List.iter
        (fun (o : Fleet.outcome) ->
          Alcotest.(check bool)
            (o.Fleet.o_name ^ " re-analyzed after config change")
            true
            (o.Fleet.o_status = Fleet.Done))
        third)

let () =
  Alcotest.run "fleet"
    [
      ( "engine",
        [
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
          Alcotest.test_case "benchmark timeout" `Quick test_benchmark_timeout;
          Alcotest.test_case "determinism across -j" `Quick test_determinism;
        ] );
      ( "store",
        [
          Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "jsonl store and cache" `Quick test_store_and_cache;
        ] );
    ]
