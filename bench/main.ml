(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (sections 3, 7 and 8). See DESIGN.md's experiment
   index (E1-E17) for the mapping. Overheads are measured as
   (instrumented run time) / (uninstrumented VEX run time), the
   reproduction's analogue of Herbgrind-vs-native.

     dune exec bench/main.exe                 # everything (slow-ish)
     dune exec bench/main.exe -- fig9 fig10   # chosen experiments
     dune exec bench/main.exe -- --quick      # smaller sweeps

   Exits 1 if any experiment raised. Per-operation costs (bignum,
   twofloat) are perfbench's micro layer, not an experiment here.

   Absolute times depend on this machine; the reproduction targets the
   paper's *shapes*: which configuration is slower, by roughly what
   factor, and where the crossovers fall. *)

let quick = ref false

(* ---------- timing helpers ---------- *)

let now () = Unix.gettimeofday ()

let time_run f =
  let t0 = now () in
  let r = f () in
  let t = now () -. t0 in
  (r, t)

(* Median of a few repetitions, after one untimed warm-up run. The major
   collection keeps GC debt from earlier (allocation-heavy) analysis runs
   from being paid during later cheap native timings. Each run gets a
   fresh domain, so per-domain caches (the libm memo of [Vex.Eval]) start
   empty and a repetition times the shadow kernels, not memo hits. *)
let timed ?(reps = 3) f =
  let run () = Domain.join (Domain.spawn (fun () -> snd (time_run f))) in
  Gc.major ();
  ignore (run ());
  let times = List.init reps (fun _ -> run ()) in
  List.nth (List.sort compare times) (reps / 2)

let pr fmt = Printf.printf fmt

let header title =
  pr "\n=== %s ===\n" title

let quartiles (xs : float list) =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else (a.(n / 4), a.(n / 2), a.(3 * n / 4))

(* ---------- common drivers ---------- *)

let native_time prog inputs =
  timed (fun () -> ignore (Vex.Machine.run ~max_steps:1_000_000_000 ~inputs prog))

let analysis_time ?(cfg = Core.Config.default) ?(reps = 3) prog inputs =
  timed ~reps (fun () ->
      ignore (Core.Analysis.analyze ~cfg ~max_steps:1_000_000_000 ~inputs prog))

let _overhead ?cfg prog inputs =
  let tn = native_time prog inputs in
  let ta = analysis_time ?cfg prog inputs in
  ta /. Float.max 1e-9 tn

let bench_prog (b : Fpcore.Suite.bench) ~n =
  let core = Fpcore.Suite.core_of b in
  let prog = Fpcore.Compile.compile ~n_inputs:n ~name:b.Fpcore.Suite.name core in
  let inputs = Fpcore.Suite.inputs_for ~seed:1 b ~n in
  (prog, inputs)

let suite_subset () =
  if !quick then
    List.map Fpcore.Suite.find
      [ "intro-example"; "doppler1"; "verhulst"; "nmse-3-1"; "kepler0";
        "himmilbeau"; "logexp"; "sine-taylor"; "logistic-map"; "pid-controller";
        "newton-sqrt"; "step-counter" ]
  else Fpcore.Suite.all

let iterations_for (b : Fpcore.Suite.bench) =
  match b.Fpcore.Suite.group with `Straight -> 16 | `Loop -> 2

(* ---------- E4 / figure 8 (left): Tetgen overhead vs input ---------- *)

let fig8_tetgen () =
  header "Figure 8 (left): Tetgen-style overhead across inputs (E4)";
  pr "%-8s %-12s %12s %14s %10s\n" "input" "degeneracy" "native (s)" "analysis (s)"
    "overhead";
  let trials = if !quick then 6 else 12 in
  List.iteri
    (fun i degeneracy ->
      let prog = Workloads.Predicates.compile_orient3d ~trials in
      let inputs =
        Workloads.Predicates.orient3d_inputs ~trials ~degeneracy ~seed:(3 + i)
      in
      let tn = native_time prog inputs in
      let ta = analysis_time prog inputs in
      pr "%-8d %-12.2f %12.4f %14.4f %9.0fx\n" (i + 1) degeneracy tn ta
        (ta /. Float.max 1e-9 tn))
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

(* ---------- E5 / figure 8 (right): Polybench overhead ---------- *)

let fig8_polybench () =
  header "Figure 8 (right): Polybench overhead per kernel (E5)";
  pr "%-14s %12s %14s %10s\n" "kernel" "native (s)" "analysis (s)" "overhead";
  let n = if !quick then 5 else 8 in
  List.iter
    (fun (k : Workloads.Polybench.kernel) ->
      let prog = Workloads.Polybench.compile ~n k in
      let tn = native_time prog [||] in
      let ta = analysis_time prog [||] in
      pr "%-14s %12.4f %14.4f %9.0fx\n" k.Workloads.Polybench.k_name tn ta
        (ta /. Float.max 1e-9 tn))
    Workloads.Polybench.kernels

(* ---------- E6: the Gram-Schmidt NaN finding ---------- *)

let gramschmidt_nan () =
  header "Section 7: Gram-Schmidt on rank-deficient input (E6)";
  let prog = Workloads.Polybench.compile_gramschmidt_rank_deficient ~n:6 () in
  let r = Core.Analysis.analyze ~cfg:Core.Config.default ~max_steps:200_000_000 prog in
  let outs = Core.Analysis.output_floats r in
  let nans = List.length (List.filter Float.is_nan outs) in
  let spots = Core.Analysis.output_spots r in
  let errmax =
    List.fold_left
      (fun m (s : Core.Exec.spot_info) -> Float.max m s.Core.Exec.s_err_max)
      0.0 spots
  in
  pr "outputs: %d, NaN outputs: %d, max output error: %.0f bits (paper: 64)\n"
    (List.length outs) nans errmax

(* ---------- E7: Gromacs-style scale run ---------- *)

let gromacs () =
  header "Section 7: Gromacs-style MD kernel (E7)";
  let particles = if !quick then 16 else 32 in
  let steps = 3 in
  let prog = Workloads.Gromacs.compile ~particles ~steps () in
  let tn = native_time prog [||] in
  let ta = analysis_time prog [||] in
  pr "particles=%d steps=%d native=%.4fs analysis=%.4fs overhead=%.0fx\n"
    particles steps tn ta
    (ta /. Float.max 1e-9 tn)

(* ---------- E8 / figure 9: FPBench overhead with component shading ---------- *)

let fig9 () =
  header "Figure 9: FPBench overhead, by component (E8)";
  pr "%-24s %6s | %9s %9s %9s %9s | %9s\n" "benchmark" "group" "tool-base"
    "+reals" "+infl" "+exprs" "overhead";
  let rows = suite_subset () in
  List.iter
    (fun (b : Fpcore.Suite.bench) ->
      let n = iterations_for b in
      match bench_prog b ~n with
      | prog, inputs ->
          let tn = native_time prog inputs in
          let base_cfg =
            {
              Core.Config.default with
              Core.Config.enable_reals = false;
              enable_influences = false;
              enable_expressions = false;
            }
          in
          let t_base = analysis_time ~cfg:base_cfg prog inputs in
          let t_reals =
            analysis_time
              ~cfg:{ base_cfg with Core.Config.enable_reals = true }
              prog inputs
          in
          let t_infl =
            analysis_time
              ~cfg:
                {
                  base_cfg with
                  Core.Config.enable_reals = true;
                  enable_influences = true;
                }
              prog inputs
          in
          let t_full = analysis_time prog inputs in
          let ov t = t /. Float.max 1e-9 tn in
          pr "%-24s %6s | %8.1fx %8.1fx %8.1fx %8.1fx | %8.1fx\n"
            b.Fpcore.Suite.name
            (match b.Fpcore.Suite.group with `Straight -> "sline" | `Loop -> "loop")
            (ov t_base) (ov t_reals) (ov t_infl) (ov t_full) (ov t_full)
      | exception e ->
          pr "%-24s FAILED: %s\n" b.Fpcore.Suite.name (Printexc.to_string e))
    rows

(* ---------- E9 / section 8.1: recovery and size histogram ---------- *)

let table_sizes () =
  header "Section 8.1: recovered-expression size histogram (E9)";
  let sizes = ref [] in
  List.iter
    (fun (b : Fpcore.Suite.bench) ->
      let n = iterations_for b in
      match bench_prog b ~n with
      | prog, inputs ->
          let cfg = { Core.Config.default with Core.Config.precision = 256 } in
          let r = Core.Analysis.analyze ~cfg ~max_steps:500_000_000 ~inputs prog in
          List.iter
            (fun (e, _, _) -> sizes := Core.Antiunify.sym_op_count e :: !sizes)
            (Core.Analysis.all_expressions r)
      | exception _ -> ())
    (suite_subset ());
  let count p = List.length (List.filter p !sizes) in
  pr "total recovered expressions: %d\n" (List.length !sizes);
  pr "  <= 5 ops:  %d\n" (count (fun s -> s <= 5));
  pr "  5-10 ops:  %d\n" (count (fun s -> s > 5 && s <= 10));
  pr "  10-20 ops: %d\n" (count (fun s -> s > 10 && s <= 20));
  pr "  20-40 ops: %d\n" (count (fun s -> s > 20 && s <= 40));
  pr "  > 40 ops:  %d (paper's largest: 67)\n" (count (fun s -> s > 40));
  pr "(paper: 77 <=5; 30 in 5-10; 24 in 10-20; 8 in 20-40; 2 at 67)\n"

(* ---------- E10: the step-counter loop surprise ---------- *)

let step_counter () =
  header "Section 8.1: step-counter loop condition (E10)";
  let b = Fpcore.Suite.find "step-counter" in
  let prog, inputs = bench_prog b ~n:1 in
  let r = Core.Analysis.analyze ~cfg:Core.Config.default ~inputs prog in
  let branches = Core.Analysis.branch_spots r in
  List.iter
    (fun (s : Core.Exec.spot_info) ->
      if s.Core.Exec.s_incorrect > 0 then
        pr "loop condition at %s: %d incorrect of %d instances (paper: 1)\n"
          (Vex.Ir.loc_to_string s.Core.Exec.s_loc)
          s.Core.Exec.s_incorrect s.Core.Exec.s_total)
    branches

(* ---------- E11-E13 / figure 10: the three CDFs ---------- *)

let relative_runtime_cdf title variants =
  header title;
  let rows = suite_subset () in
  let results =
    List.filter_map
      (fun (b : Fpcore.Suite.bench) ->
        let n = iterations_for b in
        match bench_prog b ~n with
        | prog, inputs ->
            let ts =
              List.map (fun (_, cfg) -> analysis_time ~cfg prog inputs) variants
            in
            Some (b.Fpcore.Suite.name, ts)
        | exception _ -> None)
      rows
  in
  (* normalize against the first (default) variant *)
  let names = List.map fst variants in
  pr "%-24s" "benchmark";
  List.iter (fun n -> pr " %10s" n) names;
  pr "\n";
  let ratio_lists = Array.make (List.length variants) [] in
  List.iter
    (fun (bname, ts) ->
      let base = List.nth ts 0 in
      pr "%-24s" bname;
      List.iteri
        (fun i t ->
          let ratio = t /. Float.max 1e-9 base in
          ratio_lists.(i) <- ratio :: ratio_lists.(i);
          pr " %9.2fx" ratio)
        ts;
      pr "\n")
    results;
  pr "%-24s" "IQR (q1/med/q3)";
  Array.iter
    (fun rs ->
      let q1, med, q3 = quartiles rs in
      pr " %s" (Printf.sprintf "%.2f/%.2f/%.2f" q1 med q3))
    ratio_lists;
  pr "\n"

let fig10_depth () =
  let mk d = { Core.Config.default with Core.Config.equiv_depth = d } in
  relative_runtime_cdf
    "Figure 10a: equivalence depth 5 vs 2 vs 10 (E11, relative runtime)"
    [ ("depth5", mk 5); ("depth2", mk 2); ("depth10", mk 10) ]

let fig10_precision () =
  let mk p = { Core.Config.default with Core.Config.precision = p } in
  relative_runtime_cdf
    "Figure 10b: precision 1000 vs 128 vs 4000 bits (E12, relative runtime)"
    [ ("p1000", mk 1000); ("p128", mk 128); ("p4000", mk 4000) ]

let fig10_typeinfer () =
  relative_runtime_cdf
    "Figure 10c: type inference on vs off (E13, relative runtime)"
    [
      ("ti-on", Core.Config.default);
      ("ti-off", { Core.Config.default with Core.Config.type_inference = false });
    ];
  (* FPBench minimizes non-float operations, so the paper's FPBench result
     is ambiguous there ("10% faster to 200% slower" when removed); the
     big wins come from looping programs dominated by integer indexing --
     measured here on Polybench kernels, as in the paper's closing claim *)
  pr "\n%-14s %10s %10s %10s\n" "kernel" "ti-on (s)" "ti-off (s)" "off/on";
  let ti_off = { Core.Config.default with Core.Config.type_inference = false } in
  List.iter
    (fun name ->
      let k = Workloads.Polybench.find name in
      let prog = Workloads.Polybench.compile ~n:(if !quick then 5 else 8) k in
      let t_on = analysis_time prog [||] in
      let t_off = analysis_time ~cfg:ti_off prog [||] in
      pr "%-14s %10.4f %10.4f %9.2fx\n" name t_on t_off (t_off /. Float.max 1e-9 t_on))
    [ "gemm"; "atax"; "trisolv"; "jacobi-1d" ]

(* ---------- E14/E15: expression and reals ablations ---------- *)

let ablate_expr () =
  relative_runtime_cdf
    "Section 8.2: expression building on vs off (E14; paper: off is 13-230% faster)"
    [
      ("exprs-on", Core.Config.default);
      ( "exprs-off",
        { Core.Config.default with Core.Config.enable_expressions = false } );
    ]

let ablate_real () =
  relative_runtime_cdf
    "Section 8.2: shadow reals on vs off (E15; paper: reals are 40-80% of overhead)"
    [
      ("reals-on", Core.Config.default);
      ("reals-off", { Core.Config.default with Core.Config.enable_reals = false });
    ]

(* ---------- E16: error-threshold sweep ---------- *)

let threshold_sweep () =
  let mk t = { Core.Config.default with Core.Config.error_threshold = t } in
  relative_runtime_cdf
    "Section 8.2: error threshold sweep (E16; paper: overhead unaffected)"
    [
      ("t5", mk 5.0); ("t2", mk 2.0); ("t10", mk 10.0); ("t29", mk 29.0);
      ("t53", mk 53.0);
    ]

(* ---------- E17: libm wrapping ablation ---------- *)

let ablate_wrap () =
  header "Section 8.2: libm wrapping on vs off (E17)";
  let benches =
    List.map Fpcore.Suite.find
      [ "expm1-naive"; "logexp"; "nmse-3-4"; "nmse-p336"; "nmse-ex39" ]
  in
  pr "%-16s %14s %14s %16s %16s\n" "benchmark" "exprs(wrap)" "exprs(nowrap)"
    "maxops(wrap)" "maxops(nowrap)";
  List.iter
    (fun (b : Fpcore.Suite.bench) ->
      let core = Fpcore.Suite.core_of b in
      let n = 4 in
      let inputs = Fpcore.Suite.inputs_for ~seed:1 b ~n in
      let stats wrap_libm =
        let prog = Fpcore.Compile.compile ~wrap_libm ~n_inputs:n core in
        let cfg = { Core.Config.default with Core.Config.precision = 256 } in
        let r = Core.Analysis.analyze ~cfg ~max_steps:500_000_000 ~inputs prog in
        let exprs = Core.Analysis.all_expressions r in
        let maxops =
          List.fold_left
            (fun m (e, _, _) -> max m (Core.Antiunify.sym_op_count e))
            0 exprs
        in
        (List.length exprs, maxops)
      in
      let n1, m1 = stats true in
      let n2, m2 = stats false in
      pr "%-16s %14d %14d %16d %16d\n" b.Fpcore.Suite.name n1 n2 m1 m2)
    benches;
  pr "(paper: wrapping off inflates the largest expression from 67 to 586 ops)\n"

(* ---------- E1/E2/E3: case-study rows ---------- *)

let plotter_row () =
  header "Section 3.1: complex plotter (E1)";
  let w = if !quick then 16 else 24 in
  let naive = Workloads.Plotter.render ~width:w ~height:w ~repaired:false () in
  let fixed = Workloads.Plotter.render ~width:w ~height:w ~repaired:true () in
  pr "image: %dx%d, pixels differing naive vs repaired: %d\n" w w
    (Workloads.Plotter.diff_count naive fixed);
  let prog = Workloads.Plotter.compile ~width:10 ~height:10 ~repaired:false () in
  let r = Core.Analysis.analyze ~cfg:Core.Config.default ~max_steps:500_000_000 prog in
  let csqrt_cause =
    List.exists
      (fun (_, _, (o : Core.Exec.op_info)) ->
        o.Core.Exec.o_loc.Vex.Ir.func = "csqrt")
      (Core.Analysis.erroneous_expressions r)
  in
  pr "root cause reported inside csqrt: %b (expected true)\n" csqrt_cause

let calculix_row () =
  header "Section 3.2: CalculiX DVdot (E2)";
  let trials = if !quick then 40 else 120 in
  let r =
    Workloads.Calculix.analyze ~cfg:Core.Config.default ~n:20 ~trials ~seed:5 ()
  in
  let branches = Core.Analysis.branch_spots r in
  List.iter
    (fun (s : Core.Exec.spot_info) ->
      if s.Core.Exec.s_total >= trials then
        pr "comparison at %s: %d incorrect of %d instances (paper: 65 of 2758)\n"
          (Vex.Ir.loc_to_string s.Core.Exec.s_loc)
          s.Core.Exec.s_incorrect s.Core.Exec.s_total)
    branches;
  let dvdot =
    List.filter
      (fun (_, _, (o : Core.Exec.op_info)) ->
        o.Core.Exec.o_loc.Vex.Ir.func = "DVdot")
      (Core.Analysis.erroneous_expressions r)
  in
  (match dvdot with
  | (_, fp, o) :: _ ->
      pr "root cause: %s in DVdot, aggregated over %d instances\n" fp
        o.Core.Exec.o_count
  | [] -> pr "no DVdot root cause found (unexpected)\n")

let triangle_row () =
  header "Section 7: Triangle compensation detection (E3)";
  let trials = if !quick then 30 else 60 in
  let prog = Workloads.Predicates.compile_orient2d ~trials in
  let inputs =
    Workloads.Predicates.orient2d_inputs ~trials ~degeneracy:0.8 ~seed:11
  in
  let r =
    Core.Analysis.analyze ~cfg:Core.Config.default ~max_steps:500_000_000 ~inputs
      prog
  in
  let st = r.Core.Analysis.raw.Core.Exec.r_stats in
  pr "compensating operations detected: %d (paper: 211 of 225 in Triangle)\n"
    st.Core.Exec.compensations;
  let spots = Core.Analysis.output_spots r in
  let eft_blamed =
    List.exists
      (fun (s : Core.Exec.spot_info) ->
        Core.Shadow.IntSet.exists
          (fun id ->
            match Hashtbl.find_opt r.Core.Analysis.raw.Core.Exec.r_ops id with
            | Some o ->
                let f = o.Core.Exec.o_loc.Vex.Ir.func in
                f = "two_sum" || f = "two_diff" || f = "two_product"
            | None -> false)
          s.Core.Exec.s_infl)
      spots
  in
  pr "error-free transformations blamed at outputs: %b (expected false)\n"
    eft_blamed;
  (* the paper's control-flow caveat: stage-A comparisons on compensated
     values can go the "wrong way" relative to the reals *)
  let flow =
    List.fold_left
      (fun a (s : Core.Exec.spot_info) -> a + s.Core.Exec.s_incorrect)
      0
    (Core.Analysis.branch_spots r)
  in
  pr "adaptive-filter branches diverging from the reals: %d\n" flow;
  (* the incircle predicate, Triangle's other workhorse *)
  let prog = Workloads.Predicates.compile_incircle ~trials in
  let inputs =
    Workloads.Predicates.incircle_inputs ~trials ~degeneracy:0.8 ~seed:11
  in
  let r =
    Core.Analysis.analyze ~cfg:Core.Config.default ~max_steps:500_000_000 ~inputs
      prog
  in
  pr "incircle: %d compensations, %d candidate root causes\n"
    r.Core.Analysis.raw.Core.Exec.r_stats.Core.Exec.compensations
    (List.length (Core.Analysis.erroneous_expressions r))

(* ---------- mini-Triangle: Delaunay mesh generation ---------- *)

let minitriangle () =
  header "Mini-Triangle: Delaunay overhead vs cocircular degeneracy (E3/E4)";
  pr "%-12s %12s %14s %10s %10s\n" "cocircular" "native (s)" "analysis (s)"
    "overhead" "triangles";
  let points = if !quick then 10 else 14 in
  List.iter
    (fun cocircular ->
      let prog = Workloads.Delaunay.compile ~points () in
      let inputs = Workloads.Delaunay.inputs ~points ~cocircular ~seed:3 in
      let tn = native_time prog inputs in
      let ta = analysis_time prog inputs in
      let st = Vex.Machine.run ~max_steps:1_000_000_000 ~inputs prog in
      let count =
        match Vex.Machine.outputs st with
        | { Vex.Machine.value = Vex.Value.VI64 i; _ } :: _ -> Int64.to_int i
        | _ -> -1
      in
      pr "%-12.2f %12.4f %14.4f %9.0fx %10d\n" cocircular tn ta
        (ta /. Float.max 1e-9 tn)
        count)
    [ 0.0; 0.25; 0.5; 0.75; 0.9 ]

(* ---------- main ---------- *)

let experiments =
  [
    ("plotter", plotter_row);
    ("calculix", calculix_row);
    ("triangle", triangle_row);
    ("fig8_tetgen", fig8_tetgen);
    ("minitriangle", minitriangle);
    ("fig8_polybench", fig8_polybench);
    ("gramschmidt_nan", gramschmidt_nan);
    ("gromacs", gromacs);
    ("fig9", fig9);
    ("table_sizes", table_sizes);
    ("step_counter", step_counter);
    ("fig10_depth", fig10_depth);
    ("fig10_precision", fig10_precision);
    ("fig10_typeinfer", fig10_typeinfer);
    ("ablate_expr", ablate_expr);
    ("ablate_real", ablate_real);
    ("threshold_sweep", threshold_sweep);
    ("ablate_wrap", ablate_wrap);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let chosen =
    if args = [] then List.map fst experiments
    else begin
      List.iter
        (fun a ->
          if not (List.mem_assoc a experiments) then begin
            Printf.eprintf "unknown experiment %s; available:\n" a;
            List.iter (fun (n, _) -> Printf.eprintf "  %s\n" n) experiments;
            exit 1
          end)
        args;
      args
    end
  in
  pr "fpgrind benchmark harness (%s mode)\n"
    (if !quick then "quick" else "full");
  let failed =
    List.filter
      (fun name ->
        let f = List.assoc name experiments in
        match f () with
        | () -> false
        | exception e ->
            pr "experiment %s FAILED: %s\n" name (Printexc.to_string e);
            true)
      chosen
  in
  if failed <> [] then exit 1
