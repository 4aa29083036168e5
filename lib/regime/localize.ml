(* Per-point, per-subexpression local-error localization over the FPCore
   AST — the same notion of local error the core analysis computes per
   operation (float op applied to exactly-rounded exact arguments,
   against the exact op result), re-derived here on the report
   expression so the regime search and the error-table can attribute
   error to subexpressions of the *candidate* programs, which never
   existed in the analyzed binary.

   One walk per sampled point computes exact values bottom-up and
   records each operation's local error; a point where evaluation
   raises (domain exit, unknown constant) contributes nothing. Spots
   are keyed by their argument-index path from the root and reported in
   first-visit (pre-order) order, so the output is deterministic and
   pinnable. Loop bodies are out of scope: a [While] evaluates exactly
   as a whole and records no interior spots. *)

module Ast = Fpcore.Ast
module B = Bignum.Bigfloat

type spot = {
  sp_path : int list;  (* arg-index path from the root *)
  sp_expr : string;  (* FPCore rendering of the subexpression *)
  sp_mean : float;  (* mean local error, bits, over recording points *)
  sp_max : float;
  sp_points : int;  (* points where this operation evaluated *)
}

type acc = {
  mutable a_sum : float;
  mutable a_max : float;
  mutable a_count : int;
  a_expr : Ast.expr;
  a_order : int;  (* first-visit rank, for deterministic output *)
}

let local_errors (e : Ast.expr) (ctx : Sampler.t) : spot list =
  let prec = Rewrite.Improve.prec in
  let spots : (int list, acc) Hashtbl.t = Hashtbl.create 32 in
  let record path expr err =
    let a =
      match Hashtbl.find_opt spots path with
      | Some a -> a
      | None ->
          let a =
            {
              a_sum = 0.0;
              a_max = 0.0;
              a_count = 0;
              a_expr = expr;
              a_order = Hashtbl.length spots;
            }
          in
          Hashtbl.replace spots path a;
          a
    in
    a.a_sum <- a.a_sum +. err;
    a.a_max <- Float.max a.a_max err;
    a.a_count <- a.a_count + 1
  in
  let rec walk renv path (e : Ast.expr) : B.t =
    match e with
    | Ast.Op (op, args) ->
        let vals = List.mapi (fun i a -> walk renv (i :: path) a) args in
        let r = Fpcore.Eval.apply_r ~prec op vals in
        (match Fpcore.Eval.apply_f op (List.map B.to_float vals) with
        | f -> record (List.rev path) e (Ieee.bits_of_error f (B.to_float r))
        | exception _ -> ());
        r
    | Ast.If (c, t, f) ->
        if Fpcore.Eval.eval_rb ~prec renv c then walk renv (0 :: path) t
        else walk renv (1 :: path) f
    | Ast.Let (binds, body) ->
        let vals =
          List.mapi (fun i (x, e) -> (x, walk renv (i :: path) e)) binds
        in
        walk (vals @ renv) (List.length binds :: path) body
    | Ast.LetStar (binds, body) ->
        let renv, _ =
          List.fold_left
            (fun (renv, i) (x, e) ->
              ((x, walk renv (i :: path) e) :: renv, i + 1))
            (renv, 0) binds
        in
        walk renv (List.length binds :: path) body
    | Ast.Num _ | Ast.Const _ | Ast.Var _
    | Ast.While _ | Ast.WhileStar _
    | Ast.Cmp _ | Ast.AndE _ | Ast.OrE _ | Ast.NotE _ ->
        Fpcore.Eval.eval_r ~prec renv e
  in
  Array.iter
    (fun pt ->
      let renv = List.map (fun (x, v) -> (x, B.of_float v)) pt in
      try ignore (walk renv [] e) with _ -> ())
    ctx.Rewrite.Improve.points;
  Hashtbl.fold (fun path a acc -> (path, a) :: acc) spots []
  |> List.sort (fun (_, a) (_, b) -> compare a.a_order b.a_order)
  |> List.map (fun (path, a) ->
         {
           sp_path = path;
           sp_expr = Rewrite.Soundness.render_expr a.a_expr;
           sp_mean = (if a.a_count = 0 then 0.0 else a.a_sum /. float_of_int a.a_count);
           sp_max = a.a_max;
           sp_points = a.a_count;
         })

(* The subexpressions worth branching over: local error at or above the
   analysis's taint threshold ([Core.Config.error_threshold]) on at
   least one sampled point. *)
let above ?(threshold = Core.Config.default.Core.Config.error_threshold)
    (spots : spot list) : spot list =
  List.filter (fun s -> s.sp_max >= threshold) spots
