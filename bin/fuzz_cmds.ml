(* fuzz, campaign: seeded differential fuzzing, one-shot and resumable. *)

open Cmdliner

let seed_arg = Common.seed_arg ~default:42 ~doc:"Campaign seed."
let quiet_arg = Common.quiet_arg ~doc:"Suppress progress lines."

(* ---------- fuzz (differential campaigns) ---------- *)

let soundiness ~seed ~iters ~quiet =
  let benches = Fpcore.Suite.all in
  let nbench = List.length benches in
  let violations = ref 0 in
  for i = 0 to iters - 1 do
    let bench = List.nth benches (i mod nbench) in
    let r = Rewrite.Soundness.check_bench ~seed:((seed * 1_000_003) + i) bench in
    if not r.Rewrite.Soundness.r_sound then begin
      incr violations;
      print_endline (Rewrite.Soundness.table r)
    end
    else if not quiet then
      Printf.eprintf "[%3d/%3d] sound    %s\n%!" (i + 1) iters
        bench.Fpcore.Suite.name
  done;
  Printf.printf "fuzz: seed %d, %d soundiness checks, %d violations\n" seed
    iters !violations;
  if !violations > 0 then 1 else 0

let differential ~checks ~seed ~iters ~jobs ~timeout ~corpus ~quiet =
  let bad = ref false in
  (* replay the corpus first: every past counterexample must stay fixed *)
  (match corpus with
  | Some dir when Sys.file_exists dir ->
      List.iter
        (fun (file, result) ->
          match result with
          | Fuzz.Oracle.Pass ->
              if not quiet then Printf.eprintf "replay %-40s ok\n%!" file
          | Fuzz.Oracle.Skip why ->
              if not quiet then
                Printf.eprintf "replay %-40s skip (%s)\n%!" file why
          | Fuzz.Oracle.Fail d ->
              bad := true;
              Printf.printf "replay %s: DIVERGENT (%s) %s\n" file
                d.Fuzz.Oracle.d_oracle d.Fuzz.Oracle.d_detail)
        (Fuzz.Campaign.replay_dir dir)
  | Some dir -> Printf.eprintf "warning: corpus dir %s does not exist\n" dir
  | None -> ());
  if iters > 0 then begin
    let on_progress =
      if quiet then None
      else
        Some
          (fun (p : Fleet.progress) ->
            Printf.eprintf "[%3d/%3d] %-8s %s\n%!" p.Fleet.pr_done
              p.Fleet.pr_total
              (Fleet.Store.status_to_string p.Fleet.pr_last.Fleet.o_status)
              p.Fleet.pr_last.Fleet.o_name)
    in
    let t =
      Fuzz.Campaign.run ~checks ~jobs ?timeout ?on_progress ~seed ~iters ()
    in
    let failures = Fuzz.Campaign.failed t in
    let skips = List.length (Fuzz.Campaign.skipped t) in
    Printf.printf "fuzz: seed %d, %d programs, %d divergent%s\n" seed iters
      (List.length failures)
      (if skips = 0 then ""
       else Printf.sprintf ", %d skipped (step budget)" skips);
    List.iter
      (fun (e : Fuzz.Campaign.entry) ->
        bad := true;
        match e.Fuzz.Campaign.e_status with
        | Fuzz.Campaign.Error msg ->
            Printf.printf "program %d: ERROR %s\n" e.Fuzz.Campaign.e_index msg
        | Fuzz.Campaign.Divergent d0 -> begin
            Printf.printf "program %d: DIVERGENT (%s) %s\n"
              e.Fuzz.Campaign.e_index d0.Fuzz.Oracle.d_oracle
              d0.Fuzz.Oracle.d_detail;
            (* shrink to a minimal reproducer *)
            match
              Fuzz.Campaign.shrink_entry ~checks ~seed e.Fuzz.Campaign.e_index
            with
            | Some (small, inputs, d) ->
                let src = Fuzz.Printer.program small in
                (match corpus with
                | Some dir when Sys.file_exists dir ->
                    let path =
                      Fuzz.Campaign.save_repro ~dir ~seed
                        ~index:e.Fuzz.Campaign.e_index ~d ~inputs src
                    in
                    Printf.printf "  reproducer written to %s\n" path
                | _ -> ());
                print_string
                  (String.concat "\n"
                     (List.map (fun l -> "  | " ^ l)
                        (String.split_on_char '\n' src)));
                print_newline ()
            | None ->
                Printf.printf "  (divergence did not reproduce on re-run)\n"
          end
        | Fuzz.Campaign.Passed | Fuzz.Campaign.Skipped _ -> ())
      failures
  end;
  if !bad then 1 else 0

let fuzz =
  let iters_arg =
    Arg.(
      value & opt int 1000
      & info [ "iters" ] ~docv:"N"
          ~doc:
            "Programs to generate and check. 0 skips generation (useful \
             with --corpus to replay only).")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Replay every .mc reproducer in $(docv) before the campaign, \
             and write newly shrunken counterexamples there.")
  in
  let consistency_arg =
    Arg.(
      value & flag
      & info [ "consistency" ]
          ~doc:
            "Run the engine-consistency oracle on every program (sanitizer \
             findings vs full-analysis spots), not just the deep slice.")
  in
  let tiered_consistency_arg =
    Arg.(
      value & flag
      & info [ "tiered-consistency" ]
          ~doc:
            "Run the tiered-consistency oracle on every program: every \
             spot the tiered engine reports must be bit-identical to the \
             full engine's record for it, and its outputs must match.")
  in
  let soundiness_arg =
    Arg.(
      value & flag
      & info [ "soundiness" ]
          ~doc:
            "Run the soundiness oracle instead of the differential \
             campaign: iteration i runs Rewrite.Improve on suite \
             benchmark (i mod 82) over a seeded search context and \
             asserts the accepted rewrite is error-non-increasing on a \
             disjoint resampled context. Violations print an actual-vs-\
             predicted error table and exit nonzero.")
  in
  let run seed iters jobs timeout corpus quiet consistency tiered_consistency
      soundiness_flag () =
    if soundiness_flag then soundiness ~seed ~iters ~quiet
    else
      let checks =
        {
          Fuzz.Oracle.default_checks with
          Fuzz.Oracle.c_consistency = consistency;
          c_tiered = tiered_consistency;
        }
      in
      differential ~checks ~seed ~iters ~jobs ~timeout ~corpus ~quiet
  in
  Common.cmd "fuzz"
    ~doc:
      "Differential fuzzing: generate seeded random MiniC programs and check \
       the reference evaluator, the VEX machine and the instrumented \
       analysis agree bit-for-bit; shrink and record any counterexample. \
       With --soundiness, check Rewrite.Improve results on resampled point \
       contexts instead."
    Term.(
      const run $ seed_arg $ iters_arg
      $ Common.jobs_arg
          ~doc:
            "Worker domains. The transcript is identical for any value: \
             program i depends only on (seed, i)."
      $ Common.timeout_arg ~doc:"Per-chunk wall-clock deadline."
      $ corpus_arg $ quiet_arg $ consistency_arg $ tiered_consistency_arg
      $ soundiness_arg)

(* ---------- campaign (long-running resumable fuzz) ---------- *)

let campaign =
  let iters_arg =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~docv:"N" ~doc:"Stream length (total tasks).")
  in
  let state_arg =
    Arg.(
      value & opt string "campaign.state.json"
      & info [ "state" ] ~docv:"FILE"
          ~doc:
            "Checkpoint file. If it exists and matches this campaign's \
             config fingerprint, the campaign resumes from the recorded \
             stream index; a mismatched file is refused.")
  in
  let findings_arg =
    Arg.(
      value & opt string "findings.jsonl"
      & info [ "findings" ] ~docv:"FILE"
          ~doc:
            "Append-only findings feed (JSON lines). Serve it live with \
             $(b,fpgrind serve --findings) $(docv).")
  in
  let soundiness_every_arg =
    Arg.(
      value & opt int 0
      & info [ "soundiness-every" ] ~docv:"N"
          ~doc:
            "Make every Nth stream index a soundiness check over the \
             benchmark suite (0 disables the soundiness slice).")
  in
  let regimes_every_arg =
    Arg.(
      value & opt int 0
      & info [ "regimes-every" ] ~docv:"N"
          ~doc:
            "Make every Nth stream index a regime-inference task over the \
             straight-line suite; fixes and unsound candidates land in the \
             findings feed with a regime_candidate verdict (0 disables the \
             regime slice; soundiness wins when both slices hit one index).")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 50
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint the state file every N completed tasks.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Skip corpus minimization of divergent programs.")
  in
  let run seed iters state_path findings_path soundiness_every regimes_every
      checkpoint_every no_shrink quiet () =
    let cfg =
      {
        (Campaign.Runner.default_config ~state_path ~findings_path) with
        Campaign.Runner.cfg_seed = seed;
        cfg_iters = iters;
        cfg_soundness_every = soundiness_every;
        cfg_regimes_every = regimes_every;
        cfg_checkpoint_every = max 1 checkpoint_every;
        cfg_shrink = not no_shrink;
      }
    in
    (* SIGINT/SIGTERM request a stop; the loop finishes the task in
       flight, appends its findings, checkpoints, and exits 3 so a
       supervisor can tell "interrupted, resume me" from "done". *)
    let stop = ref false in
    let on_signal _ = stop := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    let on_progress st =
      if not quiet then Printf.eprintf "%s\n%!" (Campaign.Runner.summary_line st)
    in
    match Campaign.Runner.run ~should_stop:(fun () -> !stop) ~on_progress cfg with
    | Campaign.Runner.Completed st ->
        Printf.printf "%s\n" (Campaign.Runner.summary_line st);
        0
    | Campaign.Runner.Interrupted st ->
        Printf.printf "interrupted; %s\n" (Campaign.Runner.summary_line st);
        3
  in
  Common.cmd "campaign"
    ~doc:
      "Run a long-running, resumable fuzz campaign: differential + \
       engine-consistency oracles over seeded random programs, an optional \
       soundiness slice over the benchmark suite, periodic checkpoints, and \
       an append-only findings JSONL feed. SIGINT or SIGTERM checkpoints and \
       exits 3; rerunning with the same flags resumes and the merged \
       findings feed is byte-identical to an uninterrupted run."
    Term.(
      const run $ seed_arg $ iters_arg $ state_arg $ findings_arg
      $ soundiness_every_arg $ regimes_every_arg $ checkpoint_every_arg
      $ no_shrink_arg $ quiet_arg)
