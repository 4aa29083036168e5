(* Pure operational semantics of VEX operators, shared between the fast
   uninstrumented interpreter and the instrumented analysis interpreter so
   the two can never disagree on client behaviour. *)

open Value

let eval_unop (op : Ir.unop) (v : t) : t =
  match op with
  | Ir.Not1 -> VBool (not (as_bool v))
  | Ir.Neg64 -> VI64 (Int64.neg (as_i64 v))
  | Ir.Not64 -> VI64 (Int64.lognot (as_i64 v))
  | Ir.I32toI64s -> VI64 (Int64.of_int32 (as_i32 v))
  | Ir.I32toI64u ->
      VI64 (Int64.logand (Int64.of_int32 (as_i32 v)) 0xFFFFFFFFL)
  | Ir.I64toI32 -> VI32 (Int64.to_int32 (as_i64 v))
  | Ir.F32toF64 -> VF64 (as_f32 v)
  | Ir.F64toF32 -> VF32 (Ieee.Single.of_double (as_f64 v))
  | Ir.I64toF64 -> VF64 (Int64.to_float (as_i64 v))
  | Ir.I64toF32 -> VF32 (Ieee.Single.of_double (Int64.to_float (as_i64 v)))
  | Ir.F64toI64tz -> VI64 (Int64.of_float (as_f64 v))
  | Ir.F64toI64rn -> VI64 (Int64.of_float (Float.round (as_f64 v)))
  | Ir.F32toI64tz -> VI64 (Int64.of_float (as_f32 v))
  | Ir.NegF64 -> VF64 (-.as_f64 v)
  | Ir.AbsF64 -> VF64 (Float.abs (as_f64 v))
  | Ir.SqrtF64 -> VF64 (Float.sqrt (as_f64 v))
  | Ir.NegF32 -> VF32 (-.as_f32 v)
  | Ir.AbsF32 -> VF32 (Float.abs (as_f32 v))
  | Ir.SqrtF32 -> VF32 (Ieee.Single.sqrt (as_f32 v))
  | Ir.ReinterpF64asI64 -> VI64 (Int64.bits_of_float (as_f64 v))
  | Ir.ReinterpI64asF64 -> VF64 (Int64.float_of_bits (as_i64 v))
  | Ir.ReinterpF32asI32 -> VI32 (Int32.bits_of_float (as_f32 v))
  | Ir.ReinterpI32asF32 -> VF32 (Int32.float_of_bits (as_i32 v))
  | Ir.V128to64 -> VI64 (fst (as_v128 v))
  | Ir.V128HIto64 -> VI64 (snd (as_v128 v))
  | Ir.Sqrt64Fx2 ->
      let a, b = v128_f64_lanes (as_v128 v) in
      v128_of_f64_lanes (Float.sqrt a, Float.sqrt b)

let eval_binop (op : Ir.binop) (x : t) (y : t) : t =
  match op with
  | Ir.Add64 -> VI64 (Int64.add (as_i64 x) (as_i64 y))
  | Ir.Sub64 -> VI64 (Int64.sub (as_i64 x) (as_i64 y))
  | Ir.Mul64 -> VI64 (Int64.mul (as_i64 x) (as_i64 y))
  | Ir.DivS64 ->
      let d = as_i64 y in
      if Int64.equal d 0L then raise Division_by_zero
      else VI64 (Int64.div (as_i64 x) d)
  | Ir.ModS64 ->
      let d = as_i64 y in
      if Int64.equal d 0L then raise Division_by_zero
      else VI64 (Int64.rem (as_i64 x) d)
  | Ir.And64 -> VI64 (Int64.logand (as_i64 x) (as_i64 y))
  | Ir.Or64 -> VI64 (Int64.logor (as_i64 x) (as_i64 y))
  | Ir.Xor64 -> VI64 (Int64.logxor (as_i64 x) (as_i64 y))
  | Ir.Shl64 -> VI64 (Int64.shift_left (as_i64 x) (Int64.to_int (as_i64 y)))
  | Ir.Shr64 ->
      VI64 (Int64.shift_right_logical (as_i64 x) (Int64.to_int (as_i64 y)))
  | Ir.Sar64 -> VI64 (Int64.shift_right (as_i64 x) (Int64.to_int (as_i64 y)))
  | Ir.CmpEQ64 -> VBool (Int64.equal (as_i64 x) (as_i64 y))
  | Ir.CmpNE64 -> VBool (not (Int64.equal (as_i64 x) (as_i64 y)))
  | Ir.CmpLT64S -> VBool (Int64.compare (as_i64 x) (as_i64 y) < 0)
  | Ir.CmpLE64S -> VBool (Int64.compare (as_i64 x) (as_i64 y) <= 0)
  | Ir.AddF64 -> VF64 (as_f64 x +. as_f64 y)
  | Ir.SubF64 -> VF64 (as_f64 x -. as_f64 y)
  | Ir.MulF64 -> VF64 (as_f64 x *. as_f64 y)
  | Ir.DivF64 -> VF64 (as_f64 x /. as_f64 y)
  | Ir.MinF64 -> VF64 (Float.min (as_f64 x) (as_f64 y))
  | Ir.MaxF64 -> VF64 (Float.max (as_f64 x) (as_f64 y))
  | Ir.CmpEQF64 -> VBool (as_f64 x = as_f64 y)
  | Ir.CmpNEF64 -> VBool (as_f64 x <> as_f64 y)
  | Ir.CmpLTF64 -> VBool (as_f64 x < as_f64 y)
  | Ir.CmpLEF64 -> VBool (as_f64 x <= as_f64 y)
  | Ir.AddF32 -> VF32 (Ieee.Single.add (as_f32 x) (as_f32 y))
  | Ir.SubF32 -> VF32 (Ieee.Single.sub (as_f32 x) (as_f32 y))
  | Ir.MulF32 -> VF32 (Ieee.Single.mul (as_f32 x) (as_f32 y))
  | Ir.DivF32 -> VF32 (Ieee.Single.div (as_f32 x) (as_f32 y))
  | Ir.CmpEQF32 -> VBool (as_f32 x = as_f32 y)
  | Ir.CmpLTF32 -> VBool (as_f32 x < as_f32 y)
  | Ir.CmpLEF32 -> VBool (as_f32 x <= as_f32 y)
  | Ir.Add64Fx2 ->
      let a0, a1 = v128_f64_lanes (as_v128 x)
      and b0, b1 = v128_f64_lanes (as_v128 y) in
      v128_of_f64_lanes (a0 +. b0, a1 +. b1)
  | Ir.Sub64Fx2 ->
      let a0, a1 = v128_f64_lanes (as_v128 x)
      and b0, b1 = v128_f64_lanes (as_v128 y) in
      v128_of_f64_lanes (a0 -. b0, a1 -. b1)
  | Ir.Mul64Fx2 ->
      let a0, a1 = v128_f64_lanes (as_v128 x)
      and b0, b1 = v128_f64_lanes (as_v128 y) in
      v128_of_f64_lanes (a0 *. b0, a1 *. b1)
  | Ir.Div64Fx2 ->
      let a0, a1 = v128_f64_lanes (as_v128 x)
      and b0, b1 = v128_f64_lanes (as_v128 y) in
      v128_of_f64_lanes (a0 /. b0, a1 /. b1)
  | Ir.Add32Fx4 ->
      let a0, a1, a2, a3 = v128_f32_lanes (as_v128 x)
      and b0, b1, b2, b3 = v128_f32_lanes (as_v128 y) in
      let s = Ieee.Single.add in
      v128_of_f32_lanes (s a0 b0, s a1 b1, s a2 b2, s a3 b3)
  | Ir.Sub32Fx4 ->
      let a0, a1, a2, a3 = v128_f32_lanes (as_v128 x)
      and b0, b1, b2, b3 = v128_f32_lanes (as_v128 y) in
      let s = Ieee.Single.sub in
      v128_of_f32_lanes (s a0 b0, s a1 b1, s a2 b2, s a3 b3)
  | Ir.Mul32Fx4 ->
      let a0, a1, a2, a3 = v128_f32_lanes (as_v128 x)
      and b0, b1, b2, b3 = v128_f32_lanes (as_v128 y) in
      let s = Ieee.Single.mul in
      v128_of_f32_lanes (s a0 b0, s a1 b1, s a2 b2, s a3 b3)
  | Ir.Div32Fx4 ->
      let a0, a1, a2, a3 = v128_f32_lanes (as_v128 x)
      and b0, b1, b2, b3 = v128_f32_lanes (as_v128 y) in
      let s = Ieee.Single.div in
      v128_of_f32_lanes (s a0 b0, s a1 b1, s a2 b2, s a3 b3)
  | Ir.AndV128 ->
      let a0, a1 = as_v128 x and b0, b1 = as_v128 y in
      VV128 (Int64.logand a0 b0, Int64.logand a1 b1)
  | Ir.OrV128 ->
      let a0, a1 = as_v128 x and b0, b1 = as_v128 y in
      VV128 (Int64.logor a0 b0, Int64.logor a1 b1)
  | Ir.XorV128 ->
      let a0, a1 = as_v128 x and b0, b1 = as_v128 y in
      VV128 (Int64.logxor a0 b0, Int64.logxor a1 b1)
  | Ir.I64HLtoV128 -> VV128 (as_i64 y, as_i64 x)

(* ---------- the client's math library ----------

   The concrete double answer returned to the client program for a dirty
   call. This plays the role of OpenLibm in the original implementation:
   the client sees a plain double result while the analysis separately
   computes the exact real answer. *)

let libm_arity = function
  | "atan2" | "pow" | "fmod" | "hypot" | "fmin" | "fmax" | "copysign"
  | "fdim" ->
      2
  | "fma" -> 3
  | _ -> 1

let libm_known = function
  | "exp" | "expm1" | "exp2" | "log" | "log1p" | "log2" | "log10" | "sin"
  | "cos" | "tan" | "asin" | "acos" | "atan" | "sinh" | "cosh" | "tanh"
  | "cbrt" | "fabs" | "floor" | "ceil" | "trunc" | "round" | "atan2" | "pow"
  | "fmod" | "hypot" | "fmin" | "fmax" | "copysign" | "fdim" | "fma"
  | "sqrt" ->
      true
  (* __arg(i) reads the i-th harness-provided input; it models a program
     input arriving with no floating-point provenance (the role played by
     benchmark drivers reading random data in the original evaluation) *)
  | "__arg" -> true
  | _ -> false

let libm_apply (name : string) (args : float array) : float =
  match (name, args) with
  | "sqrt", [| x |] -> Float.sqrt x
  | "exp", [| x |] -> Float.exp x
  | "expm1", [| x |] -> Float.expm1 x
  | "exp2", [| x |] -> Float.exp2 x
  | "log", [| x |] -> Float.log x
  | "log1p", [| x |] -> Float.log1p x
  | "log2", [| x |] -> Float.log2 x
  | "log10", [| x |] -> Float.log10 x
  | "sin", [| x |] -> Float.sin x
  | "cos", [| x |] -> Float.cos x
  | "tan", [| x |] -> Float.tan x
  | "asin", [| x |] -> Float.asin x
  | "acos", [| x |] -> Float.acos x
  | "atan", [| x |] -> Float.atan x
  | "sinh", [| x |] -> Float.sinh x
  | "cosh", [| x |] -> Float.cosh x
  | "tanh", [| x |] -> Float.tanh x
  | "cbrt", [| x |] -> Float.cbrt x
  | "fabs", [| x |] -> Float.abs x
  | "floor", [| x |] -> Float.floor x
  | "ceil", [| x |] -> Float.ceil x
  | "trunc", [| x |] -> Float.trunc x
  | "round", [| x |] -> Float.round x
  | "atan2", [| y; x |] -> Float.atan2 y x
  | "pow", [| x; y |] -> Float.pow x y
  | "fmod", [| x; y |] -> Float.rem x y
  | "hypot", [| x; y |] -> Float.hypot x y
  | "fmin", [| x; y |] -> Float.min x y
  | "fmax", [| x; y |] -> Float.max x y
  | "copysign", [| x; y |] -> Float.copy_sign x y
  | "fdim", [| x; y |] -> if x > y then x -. y else 0.0
  | "fma", [| x; y; z |] -> Float.fma x y z
  | _ ->
      invalid_arg
        (Printf.sprintf "Eval.libm_apply: unknown %s/%d" name
           (Array.length args))

(* The exact (shadow) semantics of the same calls, on Bigfloat. *)
let libm_apply_real_uncached ~prec (name : string)
    (args : Bignum.Bigfloat.t array) : Bignum.Bigfloat.t =
  let module B = Bignum.Bigfloat in
  let module M = Bignum.Bigfloat_math in
  match (name, args) with
  | "sqrt", [| x |] -> B.sqrt ~prec x
  | "exp", [| x |] -> M.exp ~prec x
  | "expm1", [| x |] -> M.expm1 ~prec x
  | "exp2", [| x |] -> M.exp2 ~prec x
  | "log", [| x |] -> M.log ~prec x
  | "log1p", [| x |] -> M.log1p ~prec x
  | "log2", [| x |] -> M.log2 ~prec x
  | "log10", [| x |] -> M.log10 ~prec x
  | "sin", [| x |] -> M.sin ~prec x
  | "cos", [| x |] -> M.cos ~prec x
  | "tan", [| x |] -> M.tan ~prec x
  | "asin", [| x |] -> M.asin ~prec x
  | "acos", [| x |] -> M.acos ~prec x
  | "atan", [| x |] -> M.atan ~prec x
  | "sinh", [| x |] -> M.sinh ~prec x
  | "cosh", [| x |] -> M.cosh ~prec x
  | "tanh", [| x |] -> M.tanh ~prec x
  | "cbrt", [| x |] -> M.cbrt ~prec x
  | "fabs", [| x |] -> B.abs x
  | "floor", [| x |] -> B.floor x
  | "ceil", [| x |] -> B.ceil x
  | "trunc", [| x |] -> B.trunc x
  | "round", [| x |] -> B.round_to_int x
  | "atan2", [| y; x |] -> M.atan2 ~prec y x
  | "pow", [| x; y |] -> M.pow ~prec x y
  | "fmod", [| x; y |] -> M.fmod x y
  | "hypot", [| x; y |] -> M.hypot ~prec x y
  | "fmin", [| x; y |] -> B.min2 x y
  | "fmax", [| x; y |] -> B.max2 x y
  | "copysign", [| x; y |] -> M.copysign x y
  | "fdim", [| x; y |] -> M.fdim ~prec x y
  | "fma", [| x; y; z |] -> M.fma ~prec x y z
  | _ ->
      invalid_arg
        (Printf.sprintf "Eval.libm_apply_real: unknown %s/%d" name
           (Array.length args))

(* Transcendentals dominate shadow-execution cost: at 1000 bits a sin
   or exp sums 50 to 90 fixed-point series terms in a few concurrent
   accumulators, about 55 us on one core of a 2-vCPU VM, a log about
   65 us and an atan about 100 us. Loop-heavy
   clients often revisit the same argument — e.g. a benchmark computing
   cos of the same subexpression twice per iteration.  Memoize per domain, keyed on the
   structural representation of the arguments: Bigfloat values are
   canonical (bool/int/int-array), so structural equality is exact value
   identity and — unlike [Bigfloat.equal] — keeps -0.0 and +0.0 apart,
   which matters for sign-sensitive calls like sqrt(-0) and atan2.  Cheap
   O(1) calls (fabs, rounding, min/max, copysign) skip the table: hashing
   a 1000-bit mantissa costs more than the call. *)
let libm_memo_worthwhile (name : string) =
  match name with
  | "fabs" | "floor" | "ceil" | "trunc" | "round" | "fmin" | "fmax"
  | "copysign" ->
      false
  | _ -> true

let libm_memo_key : (string * int * Bignum.Bigfloat.t array, Bignum.Bigfloat.t)
    Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 1024)

let libm_memo_max_entries = 32768

let libm_apply_real ~prec (name : string) (args : Bignum.Bigfloat.t array) :
    Bignum.Bigfloat.t =
  if not (libm_memo_worthwhile name) then
    libm_apply_real_uncached ~prec name args
  else begin
    let tbl = Domain.DLS.get libm_memo_key in
    let key = (name, prec, args) in
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = libm_apply_real_uncached ~prec name args in
        if Hashtbl.length tbl >= libm_memo_max_entries then Hashtbl.reset tbl;
        (* defensively copy: callers may reuse their argument buffer *)
        Hashtbl.add tbl (name, prec, Array.copy args) v;
        v
  end
