(* fpgrind.campaign tests: external-corpus ingestion edge cases
   (malformed FPCore, truncated datafiles, duplicate names — all must
   become structured failed records, never escaping exceptions), the
   findings feed and checkpoint round-trips, checkpoint/resume
   byte-identity, and a seeded soundiness slice over the benchmark
   suite. *)

module Suite = Fpcore.Suite

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* fixtures are copied next to the test binary by the dune deps glob;
   fall back to the source tree when run from the project root *)
let fixture_dir =
  if Sys.file_exists "corpus-ext" then "corpus-ext" else "test/corpus-ext"

let tmp_path suffix =
  let p = Filename.temp_file "fpgrind-test-campaign" suffix in
  Sys.remove p;
  p

(* ---------- ingestion ---------- *)

let bench_names (l : Suite.loaded) =
  List.map (fun (b : Suite.bench) -> b.Suite.name) l.Suite.l_benches

let failure_names (l : Suite.loaded) =
  List.map (fun e -> e.Suite.le_name) l.Suite.l_failures

let ingest_dir () =
  let l = Suite.load_dir fixture_dir in
  (* files load in sorted order: datafile.json, dup.fpcore, good.fpcore,
     malformed.fpcore, noname.fpcore, truncated.json — and within the
     set, dup.fpcore's "ext-cancel" wins over good.fpcore's because
     dup sorts first. Order is deterministic either way. *)
  Alcotest.(check (list string))
    "benches loaded"
    [ "df-logexp"; "ext-cancel"; "ext-sqrt-diff"; "noname" ]
    (List.sort compare (bench_names l));
  checki "structured failures" 5 (List.length l.Suite.l_failures);
  (* every failure carries a file, a per-job name, and a reason *)
  List.iter
    (fun (e : Suite.load_error) ->
      checkb "failure has a file" true (e.Suite.le_file <> "");
      checkb "failure has a name" true (e.Suite.le_name <> "");
      checkb "failure has a reason" true (e.Suite.le_reason <> ""))
    l.Suite.l_failures;
  (* the duplicate name is reported as such *)
  checkb "duplicate ext-cancel rejected" true
    (List.exists
       (fun (e : Suite.load_error) ->
         e.Suite.le_name = "ext-cancel"
         && e.Suite.le_reason = "duplicate benchmark name")
       l.Suite.l_failures);
  ignore (failure_names l)

let ingest_ranges () =
  let l = Suite.load_dir fixture_dir in
  let find n =
    List.find (fun (b : Suite.bench) -> b.Suite.name = n) l.Suite.l_benches
  in
  (* :pre (and (<= 1 x) (<= x 1000000)) — three decades and positive,
     so the range goes log-scale like the vendored suite's convention *)
  (match (find "ext-sqrt-diff").Suite.ranges with
  | [ ("x", lo, hi, Suite.Log) ] ->
      checkb "lo" true (lo = 1.0);
      checkb "hi" true (hi = 1000000.0)
  | _ -> Alcotest.fail "ext-sqrt-diff ranges not extracted");
  (* chained (<= -100 a 100) *)
  (match (find "ext-cancel").Suite.ranges with
  | [ ("z", lo, hi, Suite.Linear) ] ->
      (* dup.fpcore's ext-cancel won the name; it has no :pre, so the
         default range applies *)
      checkb "default lo" true (lo = -10.0);
      checkb "default hi" true (hi = 10.0)
  | _ -> Alcotest.fail "ext-cancel ranges not extracted");
  (* no :pre at all: default ranges for every arg *)
  match (find "noname").Suite.ranges with
  | [ ("x", -10.0, 10.0, Suite.Linear); ("y", -10.0, 10.0, Suite.Linear) ] ->
      ()
  | _ -> Alcotest.fail "noname default ranges wrong"

let ingest_datafile () =
  let l = Suite.load_datafile (Filename.concat fixture_dir "datafile.json") in
  Alcotest.(check (list string)) "datafile benches" [ "df-logexp" ]
    (bench_names l);
  checki "datafile failures" 2 (List.length l.Suite.l_failures);
  (* the df-logexp precondition (<= -8 x 8) becomes a linear range *)
  match l.Suite.l_benches with
  | [ b ] -> (
      match b.Suite.ranges with
      | [ ("x", -8.0, 8.0, Suite.Linear) ] -> ()
      | _ -> Alcotest.fail "datafile :pre not extracted")
  | _ -> Alcotest.fail "expected one datafile bench"

let ingest_truncated () =
  let l = Suite.load_datafile (Filename.concat fixture_dir "truncated.json") in
  checki "no benches from a truncated datafile" 0 (List.length l.Suite.l_benches);
  checki "one structured failure" 1 (List.length l.Suite.l_failures)

(* loaded benches run through the fleet unchanged, and a load failure
   turned into a failing spec produces a structured failed outcome *)
let ingest_through_fleet () =
  let l = Suite.load_dir fixture_dir in
  let cfg = Core.Config.fast in
  let specs =
    List.map (Fleet.bench_spec ~cfg)
      (Suite.jobs_of_loaded ~iterations:2 ~seed:1 l)
  in
  let failed_specs =
    List.map
      (fun (e : Suite.load_error) ->
        {
          Fleet.sp_name = e.Suite.le_name;
          sp_group = "ingest";
          sp_key = "";
          sp_engine = "full";
          sp_work = (fun ~tick:_ -> failwith e.Suite.le_reason);
        })
      l.Suite.l_failures
  in
  let outcomes = Fleet.run ~jobs:1 (specs @ failed_specs) in
  checki "one outcome per job" (List.length specs + List.length failed_specs)
    (List.length outcomes);
  List.iter
    (fun (o : Fleet.outcome) ->
      match o.Fleet.o_status with
      | Fleet.Done | Fleet.Cached ->
          checkb "ok outcome is a loaded bench" true (o.Fleet.o_group <> "ingest")
      | Fleet.Failed _ ->
          checks "failed outcome is an ingest record" "ingest" o.Fleet.o_group
      | Fleet.Timed_out -> Alcotest.fail "unexpected timeout")
    outcomes

(* ---------- findings feed ---------- *)

let findings_roundtrip () =
  let f =
    {
      Campaign.Findings.f_index = 7;
      f_seed = 42;
      f_kind = "soundiness";
      f_subject = "kepler2";
      f_detail = "improve regressed 0.04 bits on resampled points";
      f_table = "line1\nline2";
      f_repro = "";
      f_regime_candidate = Some true;
    }
  in
  let line = Campaign.Findings.to_line f in
  checkb "single line" true (not (String.contains line '\n'));
  (match Campaign.Findings.of_line line with
  | Some f' -> checkb "round-trips" true (f = f')
  | None -> Alcotest.fail "finding line did not parse");
  let path = tmp_path ".jsonl" in
  Campaign.Findings.append ~path [ f ];
  Campaign.Findings.append ~path [ { f with Campaign.Findings.f_index = 8 } ];
  let got = Campaign.Findings.load path in
  Sys.remove path;
  checki "two findings" 2 (List.length got);
  checki "append preserved order" 7
    (List.hd got).Campaign.Findings.f_index

(* ---------- checkpoint state ---------- *)

let state_roundtrip () =
  let st =
    {
      (Campaign.State.fresh ~seed:7 ~iters:100 ~soundness_every:4
         ~fingerprint:"fp") with
      Campaign.State.s_next = 33;
      s_passed = 20;
      s_divergent = 2;
    }
  in
  let path = tmp_path ".json" in
  Campaign.State.save ~path st;
  (match Campaign.State.load ~path with
  | Ok st' -> checkb "state round-trips" true (st = st')
  | Error e -> Alcotest.failf "state load failed: %s" e);
  Sys.remove path

let state_mismatch_refused () =
  let state_path = tmp_path ".json" in
  let findings_path = tmp_path ".jsonl" in
  Campaign.State.save ~path:state_path
    (Campaign.State.fresh ~seed:1 ~iters:4 ~soundness_every:0
       ~fingerprint:"something else");
  let cfg =
    {
      (Campaign.Runner.default_config ~state_path ~findings_path) with
      Campaign.Runner.cfg_seed = 1;
      cfg_iters = 4;
    }
  in
  (match Campaign.Runner.run cfg with
  | exception Campaign.Runner.Resume_mismatch _ -> ()
  | _ -> Alcotest.fail "mismatched state file was not refused");
  Sys.remove state_path;
  if Sys.file_exists findings_path then Sys.remove findings_path

(* ---------- checkpoint/resume byte-identity ---------- *)

(* The campaign slice here covers suite benches 0..23, which includes
   the two known soundiness overfits (rigid-body1, kepler2) at seed 42 —
   so the feed is non-empty and the byte-identity check is meaningful. *)
let campaign_config ~state_path ~findings_path =
  {
    (Campaign.Runner.default_config ~state_path ~findings_path) with
    Campaign.Runner.cfg_seed = 42;
    cfg_iters = 24;
    cfg_soundness_every = 1;
    cfg_checkpoint_every = 5;
  }

let read_file path =
  if not (Sys.file_exists path) then ""
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  end

let resume_byte_identity () =
  (* uninterrupted reference *)
  let st1 = tmp_path ".json" and f1 = tmp_path ".jsonl" in
  (match Campaign.Runner.run (campaign_config ~state_path:st1 ~findings_path:f1) with
  | Campaign.Runner.Completed _ -> ()
  | Campaign.Runner.Interrupted _ -> Alcotest.fail "reference run interrupted");
  (* interrupted after 9 tasks, then resumed *)
  let st2 = tmp_path ".json" and f2 = tmp_path ".jsonl" in
  let cfg2 = campaign_config ~state_path:st2 ~findings_path:f2 in
  let calls = ref 0 in
  let should_stop () =
    incr calls;
    !calls > 9
  in
  (match Campaign.Runner.run ~should_stop cfg2 with
  | Campaign.Runner.Interrupted st ->
      checki "stopped mid-stream" 9 st.Campaign.State.s_next
  | Campaign.Runner.Completed _ -> Alcotest.fail "expected an interrupt");
  (match Campaign.Runner.run cfg2 with
  | Campaign.Runner.Completed st ->
      checki "resumed to completion" 24 st.Campaign.State.s_next
  | Campaign.Runner.Interrupted _ -> Alcotest.fail "resume interrupted");
  let a = read_file f1 and b = read_file f2 in
  checkb "feed is non-empty" true (String.length a > 0);
  checks "merged findings feed byte-identical to uninterrupted run" a b;
  (* final states agree on everything *)
  let s1 =
    match Campaign.State.load ~path:st1 with Ok s -> s | Error e -> Alcotest.fail e
  in
  let s2 =
    match Campaign.State.load ~path:st2 with Ok s -> s | Error e -> Alcotest.fail e
  in
  checkb "final states identical" true (s1 = s2);
  List.iter Sys.remove [ st1; f1; st2; f2 ]

(* ---------- the regime slice ---------- *)

(* Every third index runs regime inference over the straight-line suite;
   benches 0..5 at seed 42 include three whose validation-gated fix
   ships, so the feed carries "regime" findings with a soundness
   verdict. The slice must survive interrupt+resume byte-identically
   just like the fuzz stream. *)
let regime_config ~state_path ~findings_path =
  {
    (Campaign.Runner.default_config ~state_path ~findings_path) with
    Campaign.Runner.cfg_seed = 42;
    cfg_iters = 18;
    cfg_regimes_every = 3;
    cfg_checkpoint_every = 4;
  }

let regime_slice_resume () =
  (* uninterrupted reference *)
  let st1 = tmp_path ".json" and f1 = tmp_path ".jsonl" in
  (match Campaign.Runner.run (regime_config ~state_path:st1 ~findings_path:f1) with
  | Campaign.Runner.Completed st ->
      checki "six regime checks" 6 st.Campaign.State.s_regime_checks;
      checkb "slice produced findings" true
        (st.Campaign.State.s_regime_findings > 0)
  | Campaign.Runner.Interrupted _ -> Alcotest.fail "reference run interrupted");
  (* interrupted between two regime indices, then resumed *)
  let st2 = tmp_path ".json" and f2 = tmp_path ".jsonl" in
  let cfg2 = regime_config ~state_path:st2 ~findings_path:f2 in
  let calls = ref 0 in
  let should_stop () =
    incr calls;
    !calls > 7
  in
  (match Campaign.Runner.run ~should_stop cfg2 with
  | Campaign.Runner.Interrupted st ->
      checki "stopped mid-stream" 7 st.Campaign.State.s_next
  | Campaign.Runner.Completed _ -> Alcotest.fail "expected an interrupt");
  (match Campaign.Runner.run cfg2 with
  | Campaign.Runner.Completed st ->
      checki "resumed to completion" 18 st.Campaign.State.s_next
  | Campaign.Runner.Interrupted _ -> Alcotest.fail "resume interrupted");
  let a = read_file f1 and b = read_file f2 in
  checkb "feed is non-empty" true (String.length a > 0);
  checks "merged regime feed byte-identical to uninterrupted run" a b;
  (* every finding in the feed is a regime finding with a verdict *)
  let fs = Campaign.Findings.load f1 in
  checkb "regime findings only" true
    (List.for_all (fun f -> f.Campaign.Findings.f_kind = "regime") fs);
  checkb "every finding carries the soundness verdict" true
    (List.for_all
       (fun f -> f.Campaign.Findings.f_regime_candidate <> None)
       fs);
  (* final states agree *)
  let s1 =
    match Campaign.State.load ~path:st1 with Ok s -> s | Error e -> Alcotest.fail e
  in
  let s2 =
    match Campaign.State.load ~path:st2 with Ok s -> s | Error e -> Alcotest.fail e
  in
  checkb "final states identical" true (s1 = s2);
  List.iter Sys.remove [ st1; f1; st2; f2 ]

(* when an index is both a soundiness and a regime index, soundiness
   wins — the two slices never double-book a stream index *)
let regime_precedence () =
  let st = tmp_path ".json" and f = tmp_path ".jsonl" in
  let cfg =
    {
      (Campaign.Runner.default_config ~state_path:st ~findings_path:f) with
      Campaign.Runner.cfg_seed = 42;
      cfg_iters = 12;
      cfg_soundness_every = 2;
      cfg_regimes_every = 2;
      cfg_checkpoint_every = 50;
    }
  in
  (match Campaign.Runner.run cfg with
  | Campaign.Runner.Completed st ->
      checki "soundiness takes every shared index" 6
        st.Campaign.State.s_soundness_checks;
      checki "regime slice got none" 0 st.Campaign.State.s_regime_checks
  | Campaign.Runner.Interrupted _ -> Alcotest.fail "run interrupted");
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ st; f ]

(* ---------- the soundiness oracle ---------- *)

(* resample contexts are disjoint from search contexts for any seed *)
let soundness_sampling () =
  let bench = Suite.find "intro-example" in
  let search = Rewrite.Soundness.samples_of_bench ~seed:42 ~n:8 bench in
  let again = Rewrite.Soundness.samples_of_bench ~seed:42 ~n:8 bench in
  let resample =
    Rewrite.Soundness.samples_of_bench
      ~seed:(Rewrite.Soundness.resample_seed 42)
      ~n:8 bench
  in
  let points (ctx : Rewrite.Improve.context) = ctx.Rewrite.Improve.points in
  checkb "sampling is deterministic" true (points search = points again);
  checkb "resample context is disjoint" true (points search <> points resample);
  checki "eight points" 8 (Array.length (points search))

(* a seeded soundiness slice over the suite: every report is internally
   consistent, and the verdict matches the actual-error comparison *)
let soundness_slice () =
  let benches =
    [ "intro-example"; "x_by_xy"; "verhulst"; "kepler2"; "rigid-body1" ]
  in
  List.iteri
    (fun i name ->
      let bench = Suite.find name in
      let r =
        Rewrite.Soundness.check_bench ~points:12 ~depth:2
          ~seed:((42 * 1_000_003) + i)
          bench
      in
      checks "report names its bench" name r.Rewrite.Soundness.r_name;
      (match r.Rewrite.Soundness.r_rows with
      | [ o; im ] ->
          checks "row order" "original" o.Rewrite.Soundness.w_label;
          checks "row order" "improved" im.Rewrite.Soundness.w_label;
          checkb "verdict matches the actual comparison" true
            (r.Rewrite.Soundness.r_sound
            = (im.Rewrite.Soundness.w_actual <= o.Rewrite.Soundness.w_actual
              || im.Rewrite.Soundness.w_actual = infinity
                 && o.Rewrite.Soundness.w_actual = infinity))
      | _ -> Alcotest.fail "expected exactly two rows");
      (* the table renders the bench name and both error columns *)
      let table = Rewrite.Soundness.table r in
      let has sub =
        try
          ignore (Str.search_forward (Str.regexp_string sub) table 0);
          true
        with Not_found -> false
      in
      checkb "table mentions the bench" true (has name);
      checkb "table has predicted and actual columns" true
        (has "predicted" && has "actual"))
    benches

(* the campaign's soundiness slice is deterministic: the same (seed,
   index) always checks the same bench with the same verdict *)
let soundness_deterministic () =
  let bench = Suite.find "kepler2" in
  let r1 = Rewrite.Soundness.check_bench ~points:12 ~depth:2 ~seed:7 bench in
  let r2 = Rewrite.Soundness.check_bench ~points:12 ~depth:2 ~seed:7 bench in
  checkb "same seed, same report" true (r1 = r2)

let () =
  Alcotest.run "campaign"
    [
      ( "ingest",
        [
          Alcotest.test_case "directory corpus" `Quick ingest_dir;
          Alcotest.test_case "range extraction" `Quick ingest_ranges;
          Alcotest.test_case "datafile" `Quick ingest_datafile;
          Alcotest.test_case "truncated datafile" `Quick ingest_truncated;
          Alcotest.test_case "through the fleet" `Quick ingest_through_fleet;
        ] );
      ( "findings",
        [ Alcotest.test_case "jsonl round-trip" `Quick findings_roundtrip ] );
      ( "state",
        [
          Alcotest.test_case "round-trip" `Quick state_roundtrip;
          Alcotest.test_case "mismatch refused" `Quick state_mismatch_refused;
        ] );
      ( "resume",
        [
          Alcotest.test_case "byte-identical findings" `Quick
            resume_byte_identity;
        ] );
      ( "regimes",
        [
          Alcotest.test_case "slice resumes byte-identically" `Quick
            regime_slice_resume;
          Alcotest.test_case "soundiness wins shared indices" `Quick
            regime_precedence;
        ] );
      ( "soundiness",
        [
          Alcotest.test_case "sampling discipline" `Quick soundness_sampling;
          Alcotest.test_case "seeded slice" `Quick soundness_slice;
          Alcotest.test_case "deterministic" `Quick soundness_deterministic;
        ] );
    ]
