(* Tests for the Herbie-lite accuracy improver: pattern matching, rule
   application, and end-to-end improvement of the expressions Herbgrind
   reports (closing the paper's section 3.1 loop). *)

module Ast = Fpcore.Ast

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let parse s = (Fpcore.Parse.parse_core ("(FPCore (x y z a b c) " ^ s ^ ")")).Ast.body

let pattern_matching () =
  let p = Rewrite.Pattern.of_string "(- (sqrt ?a) (sqrt ?b))" in
  let e = parse "(- (sqrt (+ x 1)) (sqrt x))" in
  (match Rewrite.Pattern.matches p e [] with
  | Some env ->
      checkb "a bound" true (List.mem_assoc "a" env);
      checkb "b bound" true (List.mem_assoc "b" env)
  | None -> Alcotest.fail "pattern should match");
  let p2 = Rewrite.Pattern.of_string "(- ?a ?a)" in
  checkb "repeated metavar matches equal" true
    (Rewrite.Pattern.matches p2 (parse "(- (* x y) (* x y))") [] <> None);
  checkb "repeated metavar rejects unequal" true
    (Rewrite.Pattern.matches p2 (parse "(- (* x y) (* x z))") [] = None)

let rewrite_generates_candidates () =
  let e = parse "(- (sqrt (+ x 1)) (sqrt x))" in
  let cands = Rewrite.Improve.rewrites Rewrite.Rules.all e in
  checkb "candidates exist" true (List.length cands >= 1);
  (* the sqrt-diff rule must be among them *)
  let expected = parse "(/ (- (+ x 1) x) (+ (sqrt (+ x 1)) (sqrt x)))" in
  checkb "sqrt-diff applied" true
    (List.exists (Rewrite.Pattern.expr_equal expected) cands)

let log_sample lo hi n =
  List.init n (fun i ->
      let t = float_of_int i /. float_of_int (max 1 (n - 1)) in
      [ ("x", lo *. Float.pow (hi /. lo) t) ])

let improves_sqrt_cancellation () =
  let e = parse "(- (sqrt (+ x 1)) (sqrt x))" in
  let samples = log_sample 1e8 1e15 12 in
  let r = Rewrite.Improve.improve e (Rewrite.Improve.context ~spec:e samples) in
  checkb
    (Printf.sprintf "error %.1f -> %.1f bits" r.Rewrite.Improve.error_before
       r.Rewrite.Improve.error_after)
    true
    (r.Rewrite.Improve.error_before > 10.0 && r.Rewrite.Improve.error_after < 2.0)

let improves_expm1 () =
  let e = parse "(- (exp x) 1)" in
  let samples = log_sample 1e-12 1e-6 10 in
  let r = Rewrite.Improve.improve e (Rewrite.Improve.context ~spec:e samples) in
  checkb "expm1 found" true (r.Rewrite.Improve.error_after < 2.0);
  checkb "uses expm1" true
    (match r.Rewrite.Improve.improved with Ast.Op ("expm1", _) -> true | _ -> false)

let improves_inv_diff () =
  let e = parse "(- (/ 1 x) (/ 1 (+ x 1)))" in
  let samples = log_sample 1e6 1e12 10 in
  let r = Rewrite.Improve.improve e (Rewrite.Improve.context ~spec:e samples) in
  checkb
    (Printf.sprintf "inv-diff %.1f -> %.1f" r.Rewrite.Improve.error_before
       r.Rewrite.Improve.error_after)
    true
    (r.Rewrite.Improve.error_after < r.Rewrite.Improve.error_before -. 5.0)

let improves_sin_difference () =
  let e = parse "(- (sin (+ x 0.0000001)) (sin x))" in
  let samples =
    List.init 10 (fun i -> [ ("x", 0.3 +. (0.1 *. float_of_int i)) ])
  in
  let r = Rewrite.Improve.improve e (Rewrite.Improve.context ~spec:e samples) in
  checkb
    (Printf.sprintf "sin-diff %.1f -> %.1f" r.Rewrite.Improve.error_before
       r.Rewrite.Improve.error_after)
    true
    (r.Rewrite.Improve.error_after < r.Rewrite.Improve.error_before -. 5.0)

let constant_folding_simplifies () =
  let e = parse "(- (sqrt (+ x 1)) (sqrt x))" in
  let cands = Rewrite.Improve.rewrites Rewrite.Rules.all e in
  let folded = List.map Rewrite.Improve.constant_fold cands in
  (* folding alone keeps expressions well-formed *)
  checkb "candidates fold" true (List.length folded = List.length cands);
  let e2 = Rewrite.Improve.constant_fold (parse "(+ (* 2 3) x)") in
  checkb "2*3 folds to 6" true
    (Rewrite.Pattern.expr_equal e2 (parse "(+ 6 x)"));
  (* a unary sign on a literal is left as written *)
  let e3 = Rewrite.Improve.constant_fold (parse "(* (- 3) x)") in
  checkb "(- 3) stays unfolded" true
    (Rewrite.Pattern.expr_equal e3 (parse "(* (- 3) x)"))

let leaves_accurate_alone () =
  let e = parse "(sqrt (+ (* x x) 1))" in
  let samples = log_sample 0.1 100.0 8 in
  let r = Rewrite.Improve.improve e (Rewrite.Improve.context ~spec:e samples) in
  checkb "already accurate" true (r.Rewrite.Improve.error_after <= r.Rewrite.Improve.error_before)

(* A context scores each expression once; its table tells 0 from -0,
   which structural equality would merge although (/ 1 0) is +inf and
   (/ 1 -0) is -inf. *)
let context_scores_once () =
  let e = parse "(- (sqrt (+ x 1)) (sqrt x))" in
  let ctx = Rewrite.Improve.context ~spec:e (log_sample 1.0 10.0 4) in
  checkb "a second ask is served from the table" true
    (Rewrite.Improve.errors ctx e == Rewrite.Improve.errors ctx e);
  let div d = Ast.Op ("/", [ Ast.Num 1.0; Ast.Num d ]) in
  checkb "0 and -0 are scored apart" true
    (Rewrite.Improve.errors ctx (div 0.0)
    != Rewrite.Improve.errors ctx (div (-0.0)))

(* A candidate is scored against the spec's exact value, not its own:
   the spec (- (+ x 1) x) is exactly 1, so the constant 2 is off by 2^52
   ulps (52 bits) everywhere, though it evaluates to itself exactly. *)
let scored_against_spec () =
  let spec = parse "(- (+ x 1) x)" in
  let ctx = Rewrite.Improve.context ~spec (log_sample 1.0 1e6 8) in
  Array.iter
    (fun err ->
      match Lazy.force err with
      | Some bits ->
          checkb (Printf.sprintf "%.2f bits" bits) true (Float.abs (bits -. 52.0) < 0.01)
      | None -> Alcotest.fail "domain exit")
    (Rewrite.Improve.errors ctx (Ast.Num 2.0))

(* the full paper-story loop: analyze, recover expression, improve it *)
let closes_the_loop_on_analysis_output () =
  let inputs = Array.init 8 (fun i -> 1e12 +. (float_of_int i *. 7e12)) in
  let prog =
    Minic.compile ~file:"loop.mc"
      {| int main() {
           int i;
           for (i = 0; i < 8; i = i + 1) {
             double x = __arg(i);
             print(sqrt(x + 1.0) - sqrt(x));
           }
           return 0;
         } |}
  in
  let r = Core.Analysis.analyze ~cfg:Core.Config.fast ~inputs prog in
  match Core.Analysis.erroneous_expressions r with
  | (sym, fpcore, _) :: _ ->
      checks "recovered" "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))" fpcore;
      let samples = List.map (fun v -> [| v |]) (Array.to_list inputs) in
      let res = Rewrite.Improve.improve_sym sym samples in
      checkb
        (Printf.sprintf "loop closed: %.1f -> %.1f bits" res.Rewrite.Improve.error_before
           res.Rewrite.Improve.error_after)
        true
        (res.Rewrite.Improve.error_after < 2.0 && res.Rewrite.Improve.error_before > 10.0)
  | [] -> Alcotest.fail "analysis found nothing"

let () =
  Alcotest.run "rewrite"
    [
      ( "patterns",
        [
          Alcotest.test_case "matching" `Quick pattern_matching;
          Alcotest.test_case "candidates" `Quick rewrite_generates_candidates;
        ] );
      ( "improvement",
        [
          Alcotest.test_case "sqrt cancellation" `Quick improves_sqrt_cancellation;
          Alcotest.test_case "expm1" `Quick improves_expm1;
          Alcotest.test_case "inverse difference" `Quick improves_inv_diff;
          Alcotest.test_case "sin difference" `Quick improves_sin_difference;
          Alcotest.test_case "constant folding" `Quick constant_folding_simplifies;
          Alcotest.test_case "accurate stays" `Quick leaves_accurate_alone;
          Alcotest.test_case "closes the loop" `Quick
            closes_the_loop_on_analysis_output;
          Alcotest.test_case "context scores once" `Quick context_scores_once;
          Alcotest.test_case "scored against spec" `Quick scored_against_spec;
        ] );
    ]
