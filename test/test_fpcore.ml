(* Tests for the FPCore front-end and the FPBench suite: parsing, the two
   direct evaluators, compilation to MiniC/VEX, and the paper's section
   8.1 expression-recovery claim on the vendored benchmarks. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- parsing ---------- *)

let parse_simple () =
  let core = Fpcore.Parse.parse_core "(FPCore (x y) (+ (* x x) y))" in
  Alcotest.(check (list string)) "args" [ "x"; "y" ] core.Fpcore.Ast.args;
  checki "ops" 2 (Fpcore.Ast.op_count core.Fpcore.Ast.body)

let parse_props () =
  let core =
    Fpcore.Parse.parse_core
      "(FPCore (x) :name \"test\" :pre (< 0 x) (sqrt x))"
  in
  checks "name" "test" (Option.get core.Fpcore.Ast.name);
  checkb "pre" true (core.Fpcore.Ast.pre <> None)

let parse_let_while () =
  let core =
    Fpcore.Parse.parse_core
      "(FPCore (a) (while (< i 10) ((i 0 (+ i 1)) (s a (* s 2))) s))"
  in
  checkb "loop" true (Fpcore.Ast.has_loop core.Fpcore.Ast.body)

let parse_rationals () =
  let core = Fpcore.Parse.parse_core "(FPCore (x) (* x 17/4))" in
  match core.Fpcore.Ast.body with
  | Fpcore.Ast.Op ("*", [ _; Fpcore.Ast.Num f ]) ->
      checkb "17/4" true (f = 4.25)
  | _ -> Alcotest.fail "bad parse"

let whole_suite_parses () =
  List.iter
    (fun (b : Fpcore.Suite.bench) ->
      match Fpcore.Suite.core_of b with
      | core ->
          (* free variables must be exactly the declared arguments *)
          let free =
            List.sort_uniq compare
              (Fpcore.Ast.free_vars_expr [] core.Fpcore.Ast.body)
          in
          let declared = List.sort_uniq compare core.Fpcore.Ast.args in
          List.iter
            (fun v ->
              checkb
                (Printf.sprintf "%s: free var %s declared" b.Fpcore.Suite.name v)
                true (List.mem v declared))
            free
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "%s failed to parse: %s" b.Fpcore.Suite.name
               (Printexc.to_string e)))
    Fpcore.Suite.all

let suite_group_counts () =
  checkb "enough straight-line benchmarks" true
    (List.length Fpcore.Suite.straight_line >= 40);
  checkb "enough looping benchmarks" true
    (List.length Fpcore.Suite.looping >= 10)

(* ---------- evaluators agree ---------- *)

let evaluators_agree_with_compiled_code () =
  (* The float evaluator, and the MiniC-compiled program on the VEX
     machine, must produce bit-identical outputs. *)
  List.iter
    (fun (b : Fpcore.Suite.bench) ->
      let core = Fpcore.Suite.core_of b in
      let n = 4 in
      let inputs = Fpcore.Suite.inputs_for ~seed:7 b ~n in
      let prog = Fpcore.Compile.compile ~n_inputs:n core in
      let st = Vex.Machine.run ~inputs prog in
      let compiled = Vex.Machine.output_floats st in
      let nvars = List.length core.Fpcore.Ast.args in
      let direct =
        List.init n (fun i ->
            let env =
              List.mapi (fun k x -> (x, inputs.((i * nvars) + k)))
                core.Fpcore.Ast.args
            in
            Fpcore.Eval.eval_f env core.Fpcore.Ast.body)
      in
      checki (b.Fpcore.Suite.name ^ " count") n (List.length compiled);
      List.iter2
        (fun d c ->
          checkb
            (Printf.sprintf "%s: direct %h vs compiled %h" b.Fpcore.Suite.name
               d c)
            true
            (Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float c)))
        direct compiled)
    (* a representative subset to keep the test fast: every kind of
       construct *)
    (List.map Fpcore.Suite.find
       [ "intro-example"; "doppler1"; "jet-engine"; "kepler2"; "himmilbeau";
         "verhulst"; "quadratic-m"; "nmse-3-4"; "nmse-ex310"; "cav10";
         "triangle-area"; "variance-naive"; "logistic-map"; "pid-controller";
         "newton-sqrt"; "euler-oscillator"; "trapeze-integral";
         "geometric-series" ])

let real_evaluator_catches_error () =
  (* nmse-3-1 at large x loses about half the bits *)
  let core = Fpcore.Suite.core_of (Fpcore.Suite.find "nmse-3-1") in
  let pt = List.combine core.Fpcore.Ast.args [ 1e12 ] in
  match Rewrite.Improve.error_at core.Fpcore.Ast.body pt with
  | Some err -> checkb (Printf.sprintf "error %.1f bits" err) true (err > 10.0)
  | None -> Alcotest.fail "expected one result"

let accurate_benchmark_is_accurate () =
  let core = Fpcore.Suite.core_of (Fpcore.Suite.find "hypot-naive") in
  let pt = List.combine core.Fpcore.Ast.args [ 3.0; 4.0 ] in
  match Rewrite.Improve.error_at core.Fpcore.Ast.body pt with
  | Some err ->
      checkb "value 5" true (Fpcore.Eval.eval_f pt core.Fpcore.Ast.body = 5.0);
      checkb "small error" true (err < 1.0)
  | None -> Alcotest.fail "expected one result"

(* ---------- section 8.1: recovery of the benchmark expression ---------- *)

let cfg = Core.Config.fast

let analyze_bench ?(n = 6) (b : Fpcore.Suite.bench) =
  let core = Fpcore.Suite.core_of b in
  let inputs = Fpcore.Suite.inputs_for ~seed:3 b ~n in
  let prog = Fpcore.Compile.compile ~n_inputs:n core in
  Core.Analysis.analyze ~cfg ~inputs prog

let recovery_nmse31 () =
  let r = analyze_bench (Fpcore.Suite.find "nmse-3-1") in
  let errs = Core.Analysis.erroneous_expressions r in
  checkb "found" true (List.length errs >= 1);
  let _, fpcore, _ = List.hd errs in
  checks "recovered" "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))" fpcore

let recovery_x_by_xy_is_clean () =
  let r = analyze_bench (Fpcore.Suite.find "x_by_xy") in
  checki "benign benchmark: no report" 0
    (List.length (Core.Analysis.erroneous_expressions r))

let looping_benchmarks_analyzable () =
  (* error is detected and root causes recovered even without symbolic
     loop support (paper 8.1: "recovers the expressions in the loop
     bodies") *)
  let r = analyze_bench ~n:2 (Fpcore.Suite.find "logistic-map") in
  let spots = Core.Analysis.output_spots r in
  checkb "spot exists" true (List.length spots >= 1);
  let r2 = analyze_bench ~n:1 (Fpcore.Suite.find "step-counter") in
  let diverged =
    List.filter
      (fun (s : Core.Exec.spot_info) -> s.Core.Exec.s_incorrect > 0)
      (Core.Analysis.branch_spots r2)
  in
  checkb "step-counter loop condition flagged" true (List.length diverged >= 1)

let straight_line_errors_found () =
  (* benchmarks known to be inaccurate must produce reports *)
  List.iter
    (fun name ->
      let r = analyze_bench (Fpcore.Suite.find name) in
      checkb (name ^ " flagged") true
        (List.length (Core.Analysis.erroneous_expressions r) >= 1))
    [ "nmse-3-1"; "nmse-p331"; "nmse-3-6"; "cos-naive"; "expm1-naive";
      "quadratic-p"; "poly-cancel" ]

let expression_size_distribution () =
  (* the paper's 8.1 size histogram: our suite also spans small to large
     expression sizes *)
  let sizes =
    List.map
      (fun (b : Fpcore.Suite.bench) ->
        Fpcore.Ast.op_count (Fpcore.Suite.core_of b).Fpcore.Ast.body)
      Fpcore.Suite.all
  in
  checkb "some tiny" true (List.exists (fun s -> s <= 5) sizes);
  checkb "some 10-20" true (List.exists (fun s -> s >= 10 && s < 20) sizes);
  checkb "some 20+" true (List.exists (fun s -> s >= 20) sizes)

let () =
  Alcotest.run "fpcore"
    [
      ( "parsing",
        [
          Alcotest.test_case "simple" `Quick parse_simple;
          Alcotest.test_case "properties" `Quick parse_props;
          Alcotest.test_case "let and while" `Quick parse_let_while;
          Alcotest.test_case "rationals" `Quick parse_rationals;
          Alcotest.test_case "whole suite parses" `Quick whole_suite_parses;
          Alcotest.test_case "group counts" `Quick suite_group_counts;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "compiled = direct" `Quick
            evaluators_agree_with_compiled_code;
          Alcotest.test_case "real evaluator catches error" `Quick
            real_evaluator_catches_error;
          Alcotest.test_case "accurate benchmark" `Quick
            accurate_benchmark_is_accurate;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "nmse-3-1 recovered" `Quick recovery_nmse31;
          Alcotest.test_case "benign benchmark clean" `Quick
            recovery_x_by_xy_is_clean;
          Alcotest.test_case "looping benchmarks" `Quick
            looping_benchmarks_analyzable;
          Alcotest.test_case "known-bad flagged" `Quick
            straight_line_errors_found;
          Alcotest.test_case "size distribution" `Quick
            expression_size_distribution;
        ] );
    ]
