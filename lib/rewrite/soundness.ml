(* The soundiness oracle over [Rewrite.Improve] — Herbie's
   `soundiness.rkt` discipline. The improver scores candidates on a
   *search* point context; an improvement that merely overfits those
   points is unsound advice. So every accepted rewrite is re-validated
   on a *fresh* point context, sampled from the same input ranges but
   with a seed derived disjointly from the search seed, and the oracle
   asserts [mean_error_bits] is non-increasing on the fresh points.

   The per-improvement report is the `error-table.rkt` pattern: for
   each expression (original and improved) we show *predicted* error —
   what the improver measured on its search context — next to *actual*
   error on the resampled context, so a violation is immediately
   legible as a predicted/actual divergence rather than a bare flag. *)

module Ast = Fpcore.Ast
module Suite = Fpcore.Suite

(* The resample context must be disjoint from the search context for
   every seed: mixing with an odd constant and flipping high bits keeps
   the two xorshift streams unrelated even when seeds collide across
   campaign slices. *)
let resample_seed (seed : int) : int =
  (seed * 0x9E3779B9) lxor 0x5DEECE66D lxor (seed lsr 3)

type row = {
  w_label : string;  (* "original" | "improved" *)
  w_predicted : float;  (* mean error bits on the search context *)
  w_actual : float;  (* mean error bits on the resample context *)
  w_valid : int;  (* in-domain resample points *)
  w_domain_errors : int;  (* resample points where evaluation raised *)
}

type report = {
  r_name : string;
  r_seed : int;
  r_points : int;  (* points per context *)
  r_original : string;  (* FPCore rendering *)
  r_improved : string;
  r_rows : row list;  (* original first, improved second *)
  r_regression : float;  (* actual_after - actual_before, bits *)
  r_sound : bool;
}

(* ---------- rendering ---------- *)

let rec render_expr (e : Ast.expr) : string =
  match e with
  | Ast.Num v ->
      if Float.is_integer v && Float.abs v < 1e15 then
        Printf.sprintf "%.0f" v
      else Printf.sprintf "%.17g" v
  | Ast.Var x -> x
  | Ast.Const c -> c
  | Ast.Op (f, args) ->
      Printf.sprintf "(%s %s)" f (String.concat " " (List.map render_expr args))
  | Ast.If (c, t, f) ->
      Printf.sprintf "(if %s %s %s)" (render_expr c) (render_expr t)
        (render_expr f)
  | Ast.Cmp (op, args) ->
      Printf.sprintf "(%s %s)" op (String.concat " " (List.map render_expr args))
  | Ast.AndE args ->
      Printf.sprintf "(and %s)" (String.concat " " (List.map render_expr args))
  | Ast.OrE args ->
      Printf.sprintf "(or %s)" (String.concat " " (List.map render_expr args))
  | Ast.NotE a -> Printf.sprintf "(not %s)" (render_expr a)
  | Ast.Let (binds, body) | Ast.LetStar (binds, body) ->
      Printf.sprintf "(let (%s) %s)"
        (String.concat " "
           (List.map
              (fun (x, e) -> Printf.sprintf "(%s %s)" x (render_expr e))
              binds))
        (render_expr body)
  | Ast.While (cond, binds, body) | Ast.WhileStar (cond, binds, body) ->
      Printf.sprintf "(while %s (%s) %s)" (render_expr cond)
        (String.concat " "
           (List.map
              (fun (x, i, u) ->
                Printf.sprintf "(%s %s %s)" x (render_expr i) (render_expr u))
              binds))
        (render_expr body)

(* ---------- point contexts ---------- *)

(* Sample [n] named-assignment points for a benchmark into a new context
   whose spec is the benchmark's body. This reuses the suite's xorshift64*
   stream ([Suite.inputs_for]) so the points are a pure function of
   (bench, seed, n) — the campaign checkpoint needs exactly that to
   replay byte-identically. *)
let samples_of_bench ?(seed = 42) ~(n : int) (bench : Suite.bench) :
    Improve.context =
  let vars = List.map (fun (v, _, _, _) -> v) bench.Suite.ranges in
  let nvars = List.length vars in
  Improve.context ~spec:(Suite.core_of bench).Ast.body
    (if nvars = 0 then []
     else
       let flat = Suite.inputs_for ~seed bench ~n in
       List.init n (fun i ->
           List.mapi (fun j x -> (x, flat.((i * nvars) + j))) vars))

(* ---------- the oracle ---------- *)

let report_of ~name ~seed ~points ~(resample : Improve.context)
    (res : Improve.result) : report =
  let row w_label w_predicted e =
    let w_actual, w_valid, w_domain_errors =
      Improve.error_bits_stats e resample
    in
    { w_label; w_predicted; w_actual; w_valid; w_domain_errors }
  in
  let before = row "original" res.Improve.error_before res.Improve.original in
  let after = row "improved" res.Improve.error_after res.Improve.improved in
  let regression = after.w_actual -. before.w_actual in
  (* Non-increasing up to both contexts being out of domain: a pair of
     infinite means (no in-domain resample points for either side) says
     nothing and counts as sound. NaN cannot occur: means are finite,
     0.0, or infinity by construction. *)
  let sound =
    if after.w_actual = infinity && before.w_actual = infinity then true
    else after.w_actual <= before.w_actual
  in
  {
    r_name = name;
    r_seed = seed;
    r_points = points;
    r_original = render_expr res.Improve.original;
    r_improved = render_expr res.Improve.improved;
    r_rows = [ before; after ];
    r_regression = (if sound then 0.0 else regression);
    r_sound = sound;
  }

(* Run the improver on a search context and validate the result on a
   disjoint resample context. [seed] seeds the search context; the
   resample context uses [resample_seed seed]. *)
let check_bench ?(beam = 8) ?(depth = 3) ?(points = 24) ?(seed = 42)
    (bench : Suite.bench) : report =
  let core = Suite.core_of bench in
  let search = samples_of_bench ~seed ~n:points bench in
  let resample = samples_of_bench ~seed:(resample_seed seed) ~n:points bench in
  let res = Improve.improve ~beam ~depth core.Ast.body search in
  report_of ~name:bench.Suite.name ~seed ~points ~resample res

(* ---------- the error table ---------- *)

let fmt_bits f =
  if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else Printf.sprintf "%.2f" f

(* error-table.rkt style: one row per expression, predicted next to
   actual, with the resample-context domain split. *)
let table (r : report) : string =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "soundiness %s (seed %d, %d+%d points): %s\n" r.r_name
    r.r_seed r.r_points r.r_points
    (if r.r_sound then "sound"
     else Printf.sprintf "UNSOUND (+%.2f bits on resample)" r.r_regression);
  Printf.bprintf buf "  %-10s %14s %14s %8s %8s\n" "expr" "predicted" "actual"
    "valid" "dom-err";
  List.iter
    (fun w ->
      Printf.bprintf buf "  %-10s %14s %14s %8d %8d\n" w.w_label
        (fmt_bits w.w_predicted) (fmt_bits w.w_actual) w.w_valid
        w.w_domain_errors)
    r.r_rows;
  Printf.bprintf buf "  original: %s\n" r.r_original;
  Printf.bprintf buf "  improved: %s" r.r_improved;
  Buffer.contents buf
