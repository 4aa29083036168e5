(* Direct evaluators for FPCore: in IEEE doubles (what a compiled
   benchmark computes) and in high-precision reals (ground truth). The
   double evaluator provides the test oracle for the MiniC compilation
   path; the real evaluator measures true benchmark error. *)

module B = Bignum.Bigfloat

exception Eval_error of string

let lookup env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> raise (Eval_error ("unbound variable " ^ x))

(* ---------- doubles ---------- *)

let rec eval_f (env : (string * float) list) (e : Ast.expr) : float =
  match e with
  | Ast.Num f -> f
  | Ast.Const c -> List.assoc c Ast.constants
  | Ast.Var x -> lookup env x
  | Ast.Op (op, args) -> apply_f op (List.map (eval_f env) args)
  | Ast.If (c, t, e2) -> if eval_b env c then eval_f env t else eval_f env e2
  | Ast.Let (binds, body) ->
      let vals = List.map (fun (x, e) -> (x, eval_f env e)) binds in
      eval_f (vals @ env) body
  | Ast.LetStar (binds, body) ->
      let env =
        List.fold_left (fun env (x, e) -> (x, eval_f env e) :: env) env binds
      in
      eval_f env body
  | Ast.While (c, binds, res) ->
      let state = List.map (fun (x, i, _) -> (x, eval_f env i)) binds in
      let rec go state steps =
        if steps > 10_000_000 then raise (Eval_error "while: too many steps");
        let env' = state @ env in
        if eval_b env' c then begin
          let state' = List.map (fun (x, _, u) -> (x, eval_f env' u)) binds in
          go state' (steps + 1)
        end
        else eval_f env' res
      in
      go state 0
  | Ast.WhileStar (c, binds, res) ->
      let state = List.map (fun (x, i, _) -> (x, eval_f env i)) binds in
      let rec go state steps =
        if steps > 10_000_000 then raise (Eval_error "while*: too many steps");
        let env' = state @ env in
        if eval_b env' c then begin
          let _, state' =
            List.fold_left
              (fun (env_acc, out) (x, _, u) ->
                let v = eval_f env_acc u in
                ((x, v) :: env_acc, out @ [ (x, v) ]))
              (env', []) binds
          in
          go state' (steps + 1)
        end
        else eval_f env' res
      in
      go state 0
  | Ast.Cmp _ | Ast.AndE _ | Ast.OrE _ | Ast.NotE _ ->
      raise (Eval_error "boolean in numeric position")

and eval_b env (e : Ast.expr) : bool =
  match e with
  | Ast.Cmp (op, args) ->
      let vals = List.map (eval_f env) args in
      let rec chain f = function
        | a :: b :: rest -> f a b && chain f (b :: rest)
        | _ -> true
      in
      let f =
        match op with
        | "<" -> ( < )
        | "<=" -> ( <= )
        | ">" -> ( > )
        | ">=" -> ( >= )
        | "==" -> ( = )
        | "!=" -> ( <> )
        | _ -> raise (Eval_error ("bad comparison " ^ op))
      in
      chain f vals
  | Ast.AndE args -> List.for_all (eval_b env) args
  | Ast.OrE args -> List.exists (eval_b env) args
  | Ast.NotE a -> not (eval_b env a)
  | _ -> raise (Eval_error "numeric in boolean position")

(* one operation applied to its evaluated arguments *)
and apply_f op (args : float list) : float =
  match (op, args) with
  | "-", [ a ] -> -.a
  | "+", a :: rest -> List.fold_left ( +. ) a rest
  | "-", [ a; b ] -> a -. b
  | "*", a :: (_ :: _ as rest) -> List.fold_left ( *. ) a rest
  | "/", [ a; b ] -> a /. b
  | _, _ -> Vex.Eval.libm_apply op (Array.of_list args)

(* ---------- reals ---------- *)

let rec eval_r ~prec (env : (string * B.t) list) (e : Ast.expr) : B.t =
  match e with
  | Ast.Num f -> B.of_float f
  | Ast.Const "PI" -> Bignum.Bigfloat_math.pi ~prec
  | Ast.Const "E" -> Bignum.Bigfloat_math.exp ~prec B.one
  | Ast.Const "LN2" -> Bignum.Bigfloat_math.ln2 ~prec
  | Ast.Const c -> raise (Eval_error ("unknown constant " ^ c))
  | Ast.Var x -> lookup env x
  | Ast.Op (op, args) -> apply_r ~prec op (List.map (eval_r ~prec env) args)
  | Ast.If (c, t, e2) ->
      if eval_rb ~prec env c then eval_r ~prec env t else eval_r ~prec env e2
  | Ast.Let (binds, body) ->
      let vals = List.map (fun (x, e) -> (x, eval_r ~prec env e)) binds in
      eval_r ~prec (vals @ env) body
  | Ast.LetStar (binds, body) ->
      let env =
        List.fold_left (fun env (x, e) -> (x, eval_r ~prec env e) :: env) env binds
      in
      eval_r ~prec env body
  | Ast.While (c, binds, res) ->
      let state = List.map (fun (x, i, _) -> (x, eval_r ~prec env i)) binds in
      let rec go state steps =
        if steps > 1_000_000 then raise (Eval_error "while: too many steps");
        let env' = state @ env in
        if eval_rb ~prec env' c then begin
          let state' =
            List.map (fun (x, _, u) -> (x, eval_r ~prec env' u)) binds
          in
          go state' (steps + 1)
        end
        else eval_r ~prec env' res
      in
      go state 0
  | Ast.WhileStar (c, binds, res) ->
      let state = List.map (fun (x, i, _) -> (x, eval_r ~prec env i)) binds in
      let rec go state steps =
        if steps > 1_000_000 then raise (Eval_error "while*: too many steps");
        let env' = state @ env in
        if eval_rb ~prec env' c then begin
          let _, state' =
            List.fold_left
              (fun (env_acc, out) (x, _, u) ->
                let v = eval_r ~prec env_acc u in
                ((x, v) :: env_acc, out @ [ (x, v) ]))
              (env', []) binds
          in
          go state' (steps + 1)
        end
        else eval_r ~prec env' res
      in
      go state 0
  | Ast.Cmp _ | Ast.AndE _ | Ast.OrE _ | Ast.NotE _ ->
      raise (Eval_error "boolean in numeric position")

and eval_rb ~prec env (e : Ast.expr) : bool =
  match e with
  | Ast.Cmp (op, args) ->
      let vals = List.map (eval_r ~prec env) args in
      let rec chain f = function
        | a :: b :: rest -> f a b && chain f (b :: rest)
        | _ -> true
      in
      let f =
        match op with
        | "<" -> B.lt
        | "<=" -> B.le
        | ">" -> B.gt
        | ">=" -> B.ge
        | "==" -> B.equal
        | "!=" -> fun a b -> not (B.equal a b)
        | _ -> raise (Eval_error ("bad comparison " ^ op))
      in
      chain f vals
  | Ast.AndE args -> List.for_all (eval_rb ~prec env) args
  | Ast.OrE args -> List.exists (eval_rb ~prec env) args
  | Ast.NotE a -> not (eval_rb ~prec env a)
  | _ -> raise (Eval_error "numeric in boolean position")

(* one operation applied exactly to its evaluated arguments *)
and apply_r ~prec op (args : B.t list) : B.t =
  match (op, args) with
  | "-", [ a ] -> B.neg a
  | "+", a :: rest -> List.fold_left (B.add ~prec) a rest
  | "-", [ a; b ] -> B.sub ~prec a b
  | "*", a :: (_ :: _ as rest) -> List.fold_left (B.mul ~prec) a rest
  | "/", [ a; b ] -> B.div ~prec a b
  | _ -> Vex.Eval.libm_apply_real ~prec op (Array.of_list args)

(* run an FPCore on a list of input tuples, returning per-input
   (double result, bits of error against the real evaluation) *)
let error_on_inputs ?(prec = 256) (core : Ast.core) (inputs : float array list)
    : (float * float) list =
  List.map
    (fun tuple ->
      let fenv = List.mapi (fun i x -> (x, tuple.(i))) core.Ast.args in
      let renv = List.mapi (fun i x -> (x, B.of_float tuple.(i))) core.Ast.args in
      let f = eval_f fenv core.Ast.body in
      let r = eval_r ~prec renv core.Ast.body in
      (f, Ieee.bits_of_error f (B.to_float r)))
    inputs
