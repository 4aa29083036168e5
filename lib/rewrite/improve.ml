(* The accuracy improver: a beam search over rewrite rules, scoring each
   candidate by measured bits of error on sample inputs. This is the
   reproduction's stand-in for Herbie (Panchekha et al. 2015), used to
   close the loop on Herbgrind's reports: the report's FPCore expression
   goes in, a more-accurate equivalent comes out (paper section 3.1).

   Every candidate is judged against the spec's exact value, once per
   point: a point context evaluates the specification (the expression
   the search started from) at 256 bits once per point, rounds it to
   double, and scores each candidate by float evaluation alone, as
   Herbie's pcontext does. A candidate is not judged against its own
   exact value; every rule is a real identity, so the two agree unless
   256 bits are not enough to tell. *)

module Ast = Fpcore.Ast
module B = Bignum.Bigfloat

type sample = (string * float) list
(* one assignment of input variables *)

(* working precision of the exact evaluation behind every score *)
let prec = 256

(* [e] at [pt] in [prec]-bit arithmetic, rounded to double *)
let exact_at (e : Ast.expr) (pt : sample) : float =
  let renv = List.map (fun (x, v) -> (x, B.of_float v)) pt in
  B.to_float (Fpcore.Eval.eval_r ~prec renv e)

(* One point's error bits, float against exact evaluation; [None] is a
   domain exit (evaluation raised: sqrt of a negative, a log of zero
   under some rewrite), which says nothing about rounding error. Points
   off any context (the regime search's threshold probes) are scored
   here. *)
let error_at (e : Ast.expr) (pt : sample) : float option =
  match
    let f = Fpcore.Eval.eval_f pt e in
    (f, exact_at e pt)
  with
  | f, exact -> Some (Ieee.bits_of_error f exact)
  | exception _ -> None

(* A point context (Herbie's pcontext): sample points, the exact value
   of the spec at each ([None] where its evaluation raises), and a
   table of the expressions scored on them, so each (expression, point)
   pair is scored at most once, and only when asked for. Keys are
   [Marshal] images: [compare] equates [Num 0.0] and [Num (-0.0)], which
   evaluate differently ((/ 1 0) is +inf, (/ 1 -0) is -inf). A context
   belongs to the job that built it. *)
type context = {
  spec : Ast.expr;
  points : sample array;
  exact : float option Lazy.t array;
  scores : (string, float option Lazy.t array) Hashtbl.t;
}

let context ~(spec : Ast.expr) (points : sample list) : context =
  let points = Array.of_list points in
  let exact pt = lazy (try Some (exact_at spec pt) with _ -> None) in
  { spec; points; exact = Array.map exact points; scores = Hashtbl.create 64 }

let key (e : Ast.expr) : string = Marshal.to_string e []

(* [e]'s error at each point of [ctx], in point order, against the
   spec's exact value; an entry is scored when it is first forced. A
   point outside the spec's domain says nothing about any expression. *)
let errors (ctx : context) (e : Ast.expr) : float option Lazy.t array =
  let k = key e in
  match Hashtbl.find_opt ctx.scores k with
  | Some errs -> errs
  | None ->
      let score exact pt =
        lazy
          (Option.bind (Lazy.force exact) (fun exact ->
               try Some (Ieee.bits_of_error (Fpcore.Eval.eval_f pt e) exact)
               with _ -> None))
      in
      let errs = Array.map2 score ctx.exact ctx.points in
      Hashtbl.add ctx.scores k errs;
      errs

(* (error sum, in-domain points, domain exits) of [e] over the points of
   [ctx] that [keep] accepts, summed in point order *)
let tally (ctx : context) (keep : sample -> bool) (e : Ast.expr) :
    float * int * int =
  let total = ref 0.0 and valid = ref 0 and domain_errors = ref 0 in
  Array.iteri
    (fun i err ->
      if keep ctx.points.(i) then
        match err with
        | (lazy (Some bits)) ->
            total := !total +. bits;
            incr valid
        | (lazy None) -> incr domain_errors)
    (errors ctx e);
  (!total, !valid, !domain_errors)

(* Mean measured error over the context, with the domain errors counted
   separately: a domain exit must not enter the mean — scoring it as a
   flat 64 bits used to let one out-of-domain sample poison an
   otherwise-accurate candidate. A candidate with no in-domain samples
   at all scores [infinity] (it computes nothing, so it must never win
   the beam). *)
let error_bits_stats (e : Ast.expr) (ctx : context) : float * int * int =
  let total, valid, domain_errors = tally ctx (fun _ -> true) e in
  let mean =
    if valid > 0 then total /. float_of_int valid
    else if domain_errors > 0 then infinity
    else 0.0
  in
  (mean, valid, domain_errors)

let mean_error_bits (e : Ast.expr) (ctx : context) : float =
  let mean, _, _ = error_bits_stats e ctx in
  mean

(* Candidate score over the FULL point context. The bare mean silently
   drops every point where a candidate leaves the domain, so a rewrite
   that only survives on a handful of points used to be scored on that
   handful alone — single-representative-point scoring in the extreme,
   and the root of the depth-2 overfits the soundiness oracle found.
   Points the *original* already loses say nothing about the rewrite and
   stay excluded; a domain exit the candidate *introduces* counts as a
   worst-case 64 bits, so shrinking the domain can never look like an
   accuracy win. *)
let score_on_context ~(baseline_domain_errors : int) (e : Ast.expr)
    (ctx : context) : float =
  let mean, valid, domain_errors = error_bits_stats e ctx in
  let extra = max 0 (domain_errors - baseline_domain_errors) in
  if valid = 0 || extra = 0 then mean
  else
    ((mean *. float_of_int valid) +. (64.0 *. float_of_int extra))
    /. float_of_int (valid + extra)

(* fold operations whose arguments are all literal constants *)
let rec constant_fold (e : Ast.expr) : Ast.expr =
  match e with
  (* a unary sign is never folded: (- 3) stays as written, so the rules
     see the same candidates they always have *)
  | Ast.Op ((("-" | "+") as f), [ a ]) -> Ast.Op (f, [ constant_fold a ])
  | Ast.Op (f, args) -> begin
      let args = List.map constant_fold args in
      let nums =
        List.filter_map (function Ast.Num v -> Some v | _ -> None) args
      in
      if List.length nums = List.length args && args <> [] then begin
        match Fpcore.Eval.apply_f f nums with
        | v when Float.is_finite v -> Ast.Num v
        | _ | (exception _) -> Ast.Op (f, args)
      end
      else Ast.Op (f, args)
    end
  | _ -> e

(* all single-step rewrites of [e] (at any position, any rule) *)
let rewrites (rules : Rules.rule list) (e : Ast.expr) : Ast.expr list =
  let at_root e =
    List.filter_map
      (fun (r : Rules.rule) ->
        match Pattern.matches r.Rules.lhs e [] with
        | Some env -> (
            try Some (Pattern.instantiate r.Rules.rhs env)
            with Invalid_argument _ -> None)
        | None -> None)
      rules
  in
  let rec go (e : Ast.expr) : Ast.expr list =
    let here = at_root e in
    let deeper =
      match e with
      | Ast.Op (f, args) ->
          List.concat
            (List.mapi
               (fun i arg ->
                 List.map
                   (fun arg' ->
                     Ast.Op (f, List.mapi (fun j a -> if j = i then arg' else a) args))
                   (go arg))
               args)
      | Ast.Num _ | Ast.Var _ | Ast.Const _ -> []
      | Ast.If _ | Ast.Let _ | Ast.LetStar _ | Ast.While _ | Ast.WhileStar _
      | Ast.Cmp _ | Ast.AndE _ | Ast.OrE _ | Ast.NotE _ ->
          []
    in
    here @ deeper
  in
  go e

type result = {
  original : Ast.expr;
  improved : Ast.expr;
  error_before : float;
  error_after : float;
}

let rec expr_size (e : Ast.expr) : int =
  match e with
  | Ast.Num _ | Ast.Var _ | Ast.Const _ -> 1
  | Ast.Op (_, args) -> 1 + List.fold_left (fun a e -> a + expr_size e) 0 args
  | _ -> 1000

(* The beam search, returning the global top-[keep] scored candidates
   (best first, the original always in the pool). [improve] takes the
   head; the regime search branches over the whole set, because the
   best expression *per input region* is rarely the best overall. *)
let improve_candidates ?(beam = 8) ?(depth = 4) ?(keep = 6) (e : Ast.expr)
    (ctx : context) : (float * Ast.expr) list =
  let e0_err, _, base_derr = error_bits_stats e ctx in
  let score e' = score_on_context ~baseline_domain_errors:base_derr e' ctx in
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (key e) ();
  let better (a, ea) (b, eb) =
    match compare a b with
    | 0 -> compare (expr_size ea) (expr_size eb)
    | c -> c
  in
  let top = ref [ (e0_err, e) ] in
  let insert c =
    top := List.filteri (fun i _ -> i < keep) (List.sort better (c :: !top))
  in
  let frontier = ref [ (e0_err, e) ] in
  for _ = 1 to depth do
    let candidates =
      List.concat_map
        (fun (_, e) ->
          List.filter_map
            (fun e' ->
              let k = key e' in
              if Hashtbl.mem seen k then None
              else begin
                Hashtbl.replace seen k ();
                Some (score e', e')
              end)
            (List.map constant_fold (rewrites Rules.all e)))
        !frontier
    in
    List.iter insert candidates;
    frontier := List.filteri (fun i _ -> i < beam) (List.sort better candidates)
  done;
  !top

let improve ?(beam = 8) ?(depth = 4) (e : Ast.expr) (ctx : context) : result =
  match improve_candidates ~beam ~depth ~keep:1 e ctx with
  | (error_after, improved) :: _ ->
      {
        original = e;
        improved;
        error_before = mean_error_bits e ctx;
        error_after;
      }
  | [] -> assert false

(* ---------- bridging from the analysis's symbolic expressions ---------- *)

let var_name i =
  if i < Array.length Core.Antiunify.var_names then
    Core.Antiunify.var_names.(i)
  else Printf.sprintf "v%d" i

let rec of_sym (s : Core.Antiunify.sym) : Ast.expr =
  match s with
  | Core.Antiunify.Svar i -> Ast.Var (var_name i)
  | Core.Antiunify.Sconst c -> Ast.Num c
  | Core.Antiunify.Sop ("neg", [| a |]) -> Ast.Op ("-", [ of_sym a ])
  | Core.Antiunify.Sop (f, args) ->
      Ast.Op (f, Array.to_list (Array.map of_sym args))

(* Improve an expression recovered by the analysis. The symbolic
   expression's variables are renamed canonically first (matching the
   FPCore rendering the user sees in reports). *)
let improve_sym ?beam ?depth (s : Core.Antiunify.sym)
    (samples : float array list) : result =
  let s', _ = Core.Antiunify.rename s in
  let e = of_sym s' in
  let vars = List.sort_uniq compare (Ast.free_vars_expr [] e) in
  let samples =
    List.map
      (fun tuple -> List.mapi (fun i x -> (x, tuple.(i))) vars)
      samples
  in
  improve ?beam ?depth e (context ~spec:e samples)
