(* A reference evaluator for MiniC, independent of the VEX pipeline.

   This is the ground-truth leg of the differential oracle: it evaluates
   the *parsed AST* directly, sharing no code with Normalize/Codegen/
   Machine, yet is written to be bit-exact with what that pipeline
   produces. The semantics it mirrors (from Codegen + Vex.Eval):

   - int is 64-bit wrapping; DivS64/ModS64 raise on a zero divisor;
   - double ops are native OCaml float ops; float (binary32) ops go
     through [Ieee.Single] on an f32-exact double representation;
   - conversions: int->double = [Int64.to_float]; int->float double-
     rounds through double; double->int truncates via [Int64.of_float];
     float->double is the identity on the representation;
   - [&&]/[||] are EAGER (codegen evaluates both operands and combines
     with ITE), truthiness is [<> 0] (so a NaN is truthy, since
     CmpNEF64 x 0.0 holds for NaN);
   - negation of float values flips the sign bit (the XOR bit trick),
     which agrees with [-.] for every input including NaN;
   - library calls convert all arguments to double and return double,
     dispatching through [Vex.Eval.libm_apply] (plus inline sqrt/fabs,
     which evaluate identically); [__arg k] reads the input vector with
     wraparound;
   - a function that falls off its end returns zero of its return type;
   - condition evaluation order is left-to-right depth-first, matching
     Normalize's call hoisting, and a [while] condition is fully
     re-evaluated at every test (equivalent to hoist + replay as long as
     the program has no [continue], which the generator never emits).

   Uninitialized *scalar* declarations evaluate to zero here; that is
   only guaranteed to match the machine in [main] (fresh frame over
   zeroed memory). The generator always initializes scalars in helper
   functions for exactly this reason. *)

open Minic.Ast

exception Runtime of string
(** division by zero or an unsupported construct *)

exception Budget
(** the step budget ran out: a harness limit, not a program semantics *)

type value = VInt of int64 | VDouble of float | VSingle of float

type arr =
  | AInt of int64 array
  | ADouble of float array
  | ASingle of float array

type output = OInt of int64 | OFloat of float

(* invoked on every executed double-precision kernel operation
   (op name, operands, native result): the basic ops and every libm
   call; the metamorphic Bigfloat oracle hooks in here *)
type kernel_hook = string -> float array -> float -> unit

type binding = Scalar of value ref | Array of arr

type frame = { mutable locals : (string * binding) list }

type state = {
  prog : program;
  funcs : (string * func) list;
  globals : frame;
  inputs : float array;
  mutable outputs : output list; (* reversed *)
  mutable budget : int;
  hook : kernel_hook option;
}

exception Return_exn of value option
exception Break_exn
exception Continue_exn

let value_ty = function VInt _ -> Tint | VDouble _ -> Tdouble | VSingle _ -> Tfloat

let as_double = function
  | VInt i -> Int64.to_float i
  | VDouble f | VSingle f -> f

let single_neg (f : float) : float =
  Int32.float_of_bits (Int32.logxor (Int32.bits_of_float f) 0x80000000l)

(* the Codegen.convert table *)
let convert (v : value) (to_ty : ty) : value =
  match (v, to_ty) with
  | VInt _, Tint | VDouble _, Tdouble | VSingle _, Tfloat -> v
  | VInt i, Tdouble -> VDouble (Int64.to_float i)
  | VInt i, Tfloat -> VSingle (Ieee.Single.of_double (Int64.to_float i))
  | VDouble f, Tint -> VInt (Int64.of_float f)
  | VSingle f, Tint -> VInt (Int64.of_float f)
  | VSingle f, Tdouble -> VDouble f
  | VDouble f, Tfloat -> VSingle (Ieee.Single.of_double f)
  | _ -> raise (Runtime "invalid conversion")

let promote (a : value) (b : value) : ty =
  match (value_ty a, value_ty b) with
  | Tdouble, _ | _, Tdouble -> Tdouble
  | Tfloat, _ | _, Tfloat -> Tfloat
  | _ -> Tint

let truthy = function
  | VInt i -> not (Int64.equal i 0L)
  | VDouble f -> f <> 0.0
  | VSingle f -> not (f = 0.0)

let lookup (st : state) (fr : frame) (name : string) : binding =
  match List.assoc_opt name fr.locals with
  | Some b -> b
  | None -> (
      match List.assoc_opt name st.globals.locals with
      | Some b -> b
      | None -> raise (Runtime ("unbound variable " ^ name)))

let zero_of = function
  | Tint -> VInt 0L
  | Tdouble -> VDouble 0.0
  | Tfloat -> VSingle 0.0
  | Tarray _ | Tptr _ -> raise (Runtime "zero of non-scalar")

let make_array (elt : ty) (n : int) : arr =
  match elt with
  | Tint -> AInt (Array.make n 0L)
  | Tdouble -> ADouble (Array.make n 0.0)
  | Tfloat -> ASingle (Array.make n 0.0)
  | Tarray _ | Tptr _ -> raise (Runtime "nested arrays unsupported")

let arr_get (a : arr) (i : int) : value =
  match a with
  | AInt xs -> VInt xs.(i)
  | ADouble xs -> VDouble xs.(i)
  | ASingle xs -> VSingle xs.(i)

let arr_set (a : arr) (i : int) (v : value) : unit =
  match (a, convert v (match a with AInt _ -> Tint | ADouble _ -> Tdouble | ASingle _ -> Tfloat)) with
  | AInt xs, VInt x -> xs.(i) <- x
  | ADouble xs, VDouble x -> xs.(i) <- x
  | ASingle xs, VSingle x -> xs.(i) <- x
  | _ -> assert false

let arr_len = function
  | AInt xs -> Array.length xs
  | ADouble xs -> Array.length xs
  | ASingle xs -> Array.length xs

let hook_binop st name x y r =
  match st.hook with None -> () | Some h -> h name [| x; y |] r

(* ---------- expressions ---------- *)

let rec eval_expr (st : state) (fr : frame) (e : expr) : value =
  match e.desc with
  | Int_lit i -> VInt i
  | Float_lit (f, s) ->
      if String.length s > 0 && s.[String.length s - 1] = 'f' then
        (* the lexer does NOT round 'f'-suffixed literals to binary32; the
           raw double value flows into F32-typed operations, so we must
           carry it unrounded too *)
        VSingle f
      else VDouble f
  | Var name -> begin
      match lookup st fr name with
      | Scalar r -> !r
      | Array _ -> raise (Runtime ("array " ^ name ^ " used as a scalar"))
    end
  | Index (a, i) -> begin
      let arr =
        match a.desc with
        | Var name -> begin
            match lookup st fr name with
            | Array arr -> arr
            | Scalar _ -> raise (Runtime ("indexing scalar " ^ name))
          end
        | _ -> raise (Runtime "indexing a non-variable")
      in
      let idx =
        match eval_expr st fr i with
        | VInt i -> Int64.to_int i
        | _ -> raise (Runtime "non-int index")
      in
      if idx < 0 || idx >= arr_len arr then
        raise (Runtime (Printf.sprintf "index %d out of bounds" idx));
      arr_get arr idx
    end
  | Call (name, args) -> eval_call st fr e.pos name args
  | Unary (Neg, a) -> begin
      match eval_expr st fr a with
      | VInt i -> VInt (Int64.neg i)
      | VDouble f -> VDouble (-.f)
      | VSingle f -> VSingle (single_neg f)
    end
  | Unary (Not, a) -> VInt (if truthy (eval_expr st fr a) then 0L else 1L)
  | Binary ((Add | Sub | Mul | Div | Mod) as op, a, b) -> begin
      let va = eval_expr st fr a in
      let vb = eval_expr st fr b in
      let t = promote va vb in
      let va = convert va t and vb = convert vb t in
      match (t, va, vb) with
      | Tint, VInt x, VInt y -> begin
          match op with
          | Add -> VInt (Int64.add x y)
          | Sub -> VInt (Int64.sub x y)
          | Mul -> VInt (Int64.mul x y)
          | Div ->
              if Int64.equal y 0L then raise (Runtime "division by zero")
              else VInt (Int64.div x y)
          | Mod ->
              if Int64.equal y 0L then raise (Runtime "division by zero")
              else VInt (Int64.rem x y)
          | _ -> assert false
        end
      | Tdouble, VDouble x, VDouble y ->
          let r, name =
            match op with
            | Add -> (x +. y, "add")
            | Sub -> (x -. y, "sub")
            | Mul -> (x *. y, "mul")
            | Div -> (x /. y, "div")
            | Mod -> raise (Runtime "% on double")
            | _ -> assert false
          in
          hook_binop st name x y r;
          VDouble r
      | Tfloat, VSingle x, VSingle y ->
          let r =
            match op with
            | Add -> Ieee.Single.add x y
            | Sub -> Ieee.Single.sub x y
            | Mul -> Ieee.Single.mul x y
            | Div -> Ieee.Single.div x y
            | Mod -> raise (Runtime "% on float")
            | _ -> assert false
          in
          VSingle r
      | _ -> assert false
    end
  | Binary ((Lt | Le | Gt | Ge | Eq | Ne) as op, a, b) -> begin
      let va = eval_expr st fr a in
      let vb = eval_expr st fr b in
      let t = promote va vb in
      let va = convert va t and vb = convert vb t in
      let r =
        match (t, va, vb) with
        | Tint, VInt x, VInt y -> begin
            match op with
            | Lt -> Int64.compare x y < 0
            | Le -> Int64.compare x y <= 0
            | Gt -> Int64.compare y x < 0
            | Ge -> Int64.compare y x <= 0
            | Eq -> Int64.equal x y
            | Ne -> not (Int64.equal x y)
            | _ -> assert false
          end
        | (Tdouble | Tfloat), (VDouble x | VSingle x), (VDouble y | VSingle y)
          -> begin
            (* IEEE comparisons on the double representation: exact for
               f32 operands too, and NaN-correct *)
            match op with
            | Lt -> x < y
            | Le -> x <= y
            | Gt -> y < x
            | Ge -> y <= x
            | Eq -> x = y
            | Ne -> x <> y
            | _ -> assert false
          end
        | _ -> assert false
      in
      VInt (if r then 1L else 0L)
  end
  | Binary (And, a, b) ->
      (* eager, like the generated code: both sides always evaluate *)
      let va = truthy (eval_expr st fr a) in
      let vb = truthy (eval_expr st fr b) in
      VInt (if va && vb then 1L else 0L)
  | Binary (Or, a, b) ->
      let va = truthy (eval_expr st fr a) in
      let vb = truthy (eval_expr st fr b) in
      VInt (if va || vb then 1L else 0L)
  | Cast (t, a) -> convert (eval_expr st fr a) t

and eval_call st fr pos name args : value =
  if Vex.Eval.libm_known name then begin
    let fargs =
      Array.of_list (List.map (fun a -> as_double (eval_expr st fr a)) args)
    in
    if name = "__arg" then begin
      let n = Array.length st.inputs in
      if n = 0 then VDouble 0.0
      else begin
        let i = int_of_float fargs.(0) in
        VDouble st.inputs.(((i mod n) + n) mod n)
      end
    end
    else begin
      let r = Vex.Eval.libm_apply name fargs in
      (match st.hook with Some h -> h name fargs r | None -> ());
      VDouble r
    end
  end
  else begin
    match List.assoc_opt name st.funcs with
    | None -> raise (Runtime (Printf.sprintf "line %d: unknown function %s" pos.line name))
    | Some f ->
        let vargs = List.map (eval_expr st fr) args in
        let callee =
          {
            locals =
              List.map2
                (fun (pt, pn) v -> (pn, Scalar (ref (convert v pt))))
                f.params vargs;
          }
        in
        let ret =
          match exec_block st callee f.body with
          | exception Return_exn v -> v
          | () -> None (* fell off the end *)
        in
        let rt = match f.ret with Some t -> t | None -> Tint in
        (match ret with
        | Some v -> convert v rt
        | None -> zero_of rt)
  end

(* ---------- statements ---------- *)

and exec_block st (fr : frame) (stmts : stmt list) : unit =
  let saved = fr.locals in
  (* restore on any exit, including Break/Continue/Return unwinding *)
  Fun.protect
    ~finally:(fun () -> fr.locals <- saved)
    (fun () -> List.iter (exec_stmt st fr) stmts)

and exec_stmt st (fr : frame) (s : stmt) : unit =
  st.budget <- st.budget - 1;
  if st.budget <= 0 then raise Budget;
  match s.sdesc with
  | Decl (Tarray (elt, n), name, None) ->
      fr.locals <- (name, Array (make_array elt n)) :: fr.locals
  | Decl ((Tarray _ | Tptr _), _, _) -> raise (Runtime "bad array declaration")
  | Decl (t, name, init) ->
      let v =
        match init with
        | Some e -> convert (eval_expr st fr e) t
        | None -> zero_of t (* sound only where frame memory is fresh *)
      in
      fr.locals <- (name, Scalar (ref v)) :: fr.locals
  | Assign (name, e) -> begin
      match lookup st fr name with
      | Scalar r ->
          let t = value_ty !r in
          r := convert (eval_expr st fr e) t
      | Array _ -> raise (Runtime ("assignment to array " ^ name))
    end
  | Store (name, idx, e) -> begin
      match lookup st fr name with
      | Array arr ->
          let i =
            match eval_expr st fr idx with
            | VInt i -> Int64.to_int i
            | _ -> raise (Runtime "non-int index")
          in
          if i < 0 || i >= arr_len arr then
            raise (Runtime (Printf.sprintf "store index %d out of bounds" i));
          arr_set arr i (eval_expr st fr e)
      | Scalar _ -> raise (Runtime ("indexed store to scalar " ^ name))
    end
  | If (c, then_, else_) ->
      if truthy (eval_expr st fr c) then exec_block st fr then_
      else exec_block st fr else_
  | While (c, body) -> begin
      try
        while truthy (eval_expr st fr c) do
          st.budget <- st.budget - 1;
          if st.budget <= 0 then raise Budget;
          try exec_block st fr body with Continue_exn -> ()
        done
      with Break_exn -> ()
    end
  | For (init, cond, step, body) ->
      let saved = fr.locals in
      (match init with Some st' -> exec_stmt st fr st' | None -> ());
      let test () =
        match cond with Some c -> truthy (eval_expr st fr c) | None -> true
      in
      (try
         while test () do
           st.budget <- st.budget - 1;
           if st.budget <= 0 then raise Budget;
           (try exec_block st fr body with Continue_exn -> ());
           match step with Some st' -> exec_stmt st fr st' | None -> ()
         done
       with Break_exn -> ());
      fr.locals <- saved
  | Return None -> raise (Return_exn None)
  | Return (Some e) -> raise (Return_exn (Some (eval_expr st fr e)))
  | Expr e -> ignore (eval_expr st fr e)
  | Print e -> begin
      let out =
        match eval_expr st fr e with
        | VInt i -> OInt i
        | VDouble f -> OFloat f
        | VSingle f -> OFloat f (* F32toF64 is the identity here *)
      in
      st.outputs <- out :: st.outputs
    end
  | Mark e ->
      (* evaluated for effect parity, not recorded (Machine does the same) *)
      ignore (eval_expr st fr e)
  | Break -> raise Break_exn
  | Continue -> raise Continue_exn

(* ---------- programs ---------- *)

let default_budget = 2_000_000

let run ?(budget = default_budget) ?hook ?(inputs = [||]) (p : program) :
    output list =
  let st =
    {
      prog = p;
      funcs = List.map (fun f -> (f.fname, f)) p.funcs;
      globals = { locals = [] };
      inputs;
      outputs = [];
      budget;
      hook;
    }
  in
  ignore st.prog;
  (* globals initialize in declaration order; arrays to zeros *)
  List.iter
    (fun g ->
      match g.gty with
      | Tarray (elt, n) ->
          st.globals.locals <-
            st.globals.locals @ [ (g.gname, Array (make_array elt n)) ]
      | t ->
          let v =
            match g.ginit with
            | Some e -> convert (eval_expr st st.globals e) t
            | None -> zero_of t
          in
          st.globals.locals <- st.globals.locals @ [ (g.gname, Scalar (ref v)) ])
    p.globals;
  let main =
    match List.assoc_opt "main" st.funcs with
    | Some f -> f
    | None -> raise (Runtime "no main function")
  in
  let fr = { locals = [] } in
  (try ignore (exec_block st fr main.body) with Return_exn _ -> ());
  List.rev st.outputs
