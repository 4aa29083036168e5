(* Tests for the bignum substrate: naturals, integers, and the MPFR-style
   Bigfloat. The sharpest oracle available is IEEE hardware itself: a
   Bigfloat operation at precision 53 on double inputs must reproduce the
   hardware double result bit for bit (outside the subnormal/overflow
   range). *)

module N = Bignum.Natural
module Z = Bignum.Bigint
module B = Bignum.Bigfloat
module M = Bignum.Bigfloat_math

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- Natural ---------- *)

let nat_of_int_roundtrip () =
  List.iter
    (fun n -> check (Alcotest.option Alcotest.int) "roundtrip" (Some n)
        (N.to_int_opt (N.of_int n)))
    [ 0; 1; 2; 42; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 61; max_int ]

let nat_add_sub_small () =
  for _ = 1 to 200 do
    let a = Random.int 1_000_000_000 and b = Random.int 1_000_000_000 in
    checki "add" (a + b) (Option.get (N.to_int_opt (N.add (N.of_int a) (N.of_int b))));
    let hi, lo = if a >= b then (a, b) else (b, a) in
    checki "sub" (hi - lo)
      (Option.get (N.to_int_opt (N.sub (N.of_int hi) (N.of_int lo))))
  done

let nat_mul_small () =
  for _ = 1 to 200 do
    let a = Random.int 1_000_000 and b = Random.int 1_000_000 in
    checki "mul" (a * b) (Option.get (N.to_int_opt (N.mul (N.of_int a) (N.of_int b))))
  done

let random_nat bits =
  let limbs = (bits + 30) / 31 in
  let rec build acc i =
    if i = 0 then acc
    else
      build (N.add (N.shift_left acc 31) (N.of_int (Random.full_int (1 lsl 31)))) (i - 1)
  in
  build N.zero limbs

let nat_divmod_property () =
  for _ = 1 to 200 do
    let a = random_nat (1 + Random.int 600) in
    let b = random_nat (1 + Random.int 300) in
    if not (N.is_zero b) then begin
      let q, r = N.divmod a b in
      checkb "r < b" true (N.compare r b < 0);
      checkb "a = q*b + r" true (N.equal a (N.add (N.mul q b) r))
    end
  done

let nat_string_roundtrip () =
  for _ = 1 to 50 do
    let a = random_nat (1 + Random.int 400) in
    checkb "string roundtrip" true (N.equal a (N.of_string (N.to_string a)))
  done;
  checks "zero" "0" (N.to_string N.zero);
  checks "big"
    "340282366920938463463374607431768211456"
    (N.to_string (N.pow_int N.two 128))

(* Half the inputs lie within 2 sqrt a of a perfect square, where the
   last Newton step of a wide root can land one above the floor. *)
let nat_isqrt () =
  for i = 1 to 400 do
    let a =
      if i land 1 = 0 then random_nat (1 + Random.int 400)
      else begin
        let s = N.add (random_nat (1 + Random.int 200)) N.one in
        let d = snd (N.divmod (random_nat (N.bit_length s + 1)) (N.mul_int s 2)) in
        if Random.bool () then N.add (N.mul s s) d else N.sub (N.mul s s) d
      end
    in
    let s = N.isqrt a in
    checkb "s*s <= a" true (N.compare (N.mul s s) a <= 0);
    let s1 = N.add s N.one in
    checkb "(s+1)^2 > a" true (N.compare (N.mul s1 s1) a > 0)
  done

(* exact squares and their neighbours pin the floor at both ends *)
let nat_isqrt_squares () =
  for _ = 1 to 200 do
    let w = 1 + Random.int 1200 in
    let a = N.add (N.shift_right (random_nat w) (Random.int 31)) N.one in
    let a2 = N.mul a a in
    let is name want got = checkb name true (N.equal want got) in
    is "isqrt a^2 = a" a (N.isqrt a2);
    is "isqrt (a^2 - 1) = a - 1" (N.sub a N.one) (N.isqrt (N.sub a2 N.one));
    is "isqrt (a^2 + 2a) = a" a (N.isqrt (N.add a2 (N.mul_int a 2)))
  done

(* the short product is the floor of the shifted product or one less *)
let nat_mul_shift_right () =
  for _ = 1 to 300 do
    let a = random_nat (1 + Random.int 1500)
    and b = random_nat (1 + Random.int 1500) in
    let s = Random.int 3200 in
    let exact = N.shift_right (N.mul a b) s in
    let got = N.mul_shift_right a b s in
    checkb "floor or one less" true
      (N.equal got exact || N.equal (N.add got N.one) exact)
  done

let nat_karatsuba_matches () =
  (* Large operands exercise the Karatsuba path; compare against a
     sum-of-shifts reference computed with add/shift only. *)
  for _ = 1 to 10 do
    let a = random_nat 2200 and b = random_nat 2500 in
    let reference =
      let acc = ref N.zero in
      for i = 0 to N.bit_length b - 1 do
        if N.testbit b i then acc := N.add !acc (N.shift_left a i)
      done;
      !acc
    in
    checkb "karatsuba = reference" true (N.equal (N.mul a b) reference)
  done

let nat_shifts () =
  for _ = 1 to 100 do
    let a = random_nat (1 + Random.int 300) in
    let k = Random.int 200 in
    checkb "shift roundtrip" true
      (N.equal a (N.shift_right (N.shift_left a k) k));
    checki "bitlen shift" (N.bit_length a + k)
      (if N.is_zero a then 0 else N.bit_length (N.shift_left a k))
  done

let nat_to_float () =
  check (Alcotest.float 0.0) "2^70" (ldexp 1.0 70)
    (N.to_float (N.pow_int N.two 70));
  check (Alcotest.float 0.0) "exact small" 123456789.0
    (N.to_float (N.of_int 123456789));
  (* 2^64 + 1 rounds down to 2^64 under nearest-even *)
  check (Alcotest.float 0.0) "round to even" (ldexp 1.0 64)
    (N.to_float (N.add (N.pow_int N.two 64) N.one))

(* ---------- Bigint ---------- *)

let int_arith () =
  for _ = 1 to 300 do
    let a = Random.int 2_000_000 - 1_000_000
    and b = Random.int 2_000_000 - 1_000_000 in
    let za = Z.of_int a and zb = Z.of_int b in
    checki "add" (a + b) (Option.get (Z.to_int_opt (Z.add za zb)));
    checki "sub" (a - b) (Option.get (Z.to_int_opt (Z.sub za zb)));
    checki "mul" (a * b) (Option.get (Z.to_int_opt (Z.mul za zb)));
    if b <> 0 then begin
      let q, r = Z.divmod za zb in
      checki "quot" (a / b) (Option.get (Z.to_int_opt q));
      checki "rem" (a mod b) (Option.get (Z.to_int_opt r))
    end
  done

let int_compare_sign () =
  checki "sign neg" (-1) (Z.sign (Z.of_int (-5)));
  checki "sign zero" 0 (Z.sign Z.zero);
  checkb "compare" true (Z.compare (Z.of_int (-10)) (Z.of_int (-2)) < 0);
  checks "to_string" "-12345" (Z.to_string (Z.of_int (-12345)))

(* ---------- Bigfloat ---------- *)

let float_roundtrip () =
  let cases =
    [ 0.0; -0.0; 1.0; -1.5; 0.1; 1e300; 1e-300; 4e-320; Float.max_float;
      Float.min_float; ldexp 1.0 (-1074); Float.pi; 1.0 /. 3.0 ]
  in
  List.iter
    (fun f ->
      let b = B.of_float f in
      checkb (Printf.sprintf "roundtrip %h" f) true
        (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (B.to_float b))))
    cases;
  checkb "inf" true (B.to_float (B.of_float infinity) = infinity);
  checkb "nan" true (Float.is_nan (B.to_float (B.of_float Float.nan)))

let random_double () =
  (* random finite double spanning a wide exponent range *)
  let m = Random.float 2.0 -. 1.0 in
  let e = Random.int 600 - 300 in
  ldexp m e

let hardware_oracle_binop name bf ff =
  for _ = 1 to 500 do
    let a = random_double () and b = random_double () in
    let expected = ff a b in
    let got = B.to_float (bf ~prec:53 (B.of_float a) (B.of_float b)) in
    if Float.is_nan expected then checkb (name ^ " nan") true (Float.is_nan got)
    else if Float.abs expected >= ldexp 1.0 (-1021)
            && Float.abs expected < infinity then
      checkb
        (Printf.sprintf "%s %h %h -> %h vs %h" name a b expected got)
        true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got))
  done

let bf_add_matches_hardware () = hardware_oracle_binop "add" B.add ( +. )
let bf_sub_matches_hardware () = hardware_oracle_binop "sub" B.sub ( -. )
let bf_mul_matches_hardware () = hardware_oracle_binop "mul" B.mul ( *. )
let bf_div_matches_hardware () = hardware_oracle_binop "div" B.div ( /. )

let bf_sqrt_matches_hardware () =
  for _ = 1 to 500 do
    let a = Float.abs (random_double ()) in
    let expected = Float.sqrt a in
    let got = B.to_float (B.sqrt ~prec:53 (B.of_float a)) in
    checkb
      (Printf.sprintf "sqrt %h -> %h vs %h" a expected got)
      true
      (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got))
  done

let bf_extended_precision_catches_cancellation () =
  (* (x + 1) - x at high precision is exactly 1 even when doubles fail *)
  let x = B.of_float 1e16 in
  let prec = 200 in
  let s = B.add ~prec x B.one in
  let d = B.sub ~prec s x in
  checkb "(1e16 + 1) - 1e16 = 1 in 200 bits" true (B.equal d B.one);
  (* while in 53 bits it is 0 or 2 but not 1 *)
  let s53 = B.add ~prec:53 x B.one in
  let d53 = B.sub ~prec:53 s53 x in
  checkb "not 1 in 53 bits" false (B.equal d53 B.one)

let bf_compare () =
  checkb "lt" true (B.lt (B.of_float 1.0) (B.of_float 2.0));
  checkb "zeros equal" true (B.equal B.zero B.neg_zero);
  checkb "neg inf least" true (B.lt B.neg_inf (B.of_float (-1e308)));
  checkb "nan incomparable" true (B.cmp B.nan B.one = None);
  for _ = 1 to 300 do
    let a = random_double () and b = random_double () in
    let expected = Stdlib.compare a b in
    match B.cmp (B.of_float a) (B.of_float b) with
    | Some c -> checki "cmp sign" expected c
    | None -> Alcotest.fail "unexpected nan"
  done

let bf_decimal_parse () =
  checkb "0.5" true (B.equal (B.of_decimal_string ~prec:53 "0.5") B.half);
  checkb "0.1 rounds like float" true
    (B.to_float (B.of_decimal_string ~prec:53 "0.1") = 0.1);
  checkb "-12345.67e-8 like float" true
    (B.to_float (B.of_decimal_string ~prec:53 "-12345.67e-8") = -12345.67e-8);
  checkb "1e300" true
    (B.to_float (B.of_decimal_string ~prec:53 "1e300") = 1e300);
  checkb "inf" true (B.of_decimal_string ~prec:53 "inf" = B.pos_inf);
  checkb "nan" true (B.is_nan (B.of_decimal_string ~prec:53 "nan"))

let bf_decimal_print () =
  checks "half" "0.5" (B.to_decimal_string ~digits:5 B.half);
  checks "neg" "-2" (B.to_decimal_string ~digits:5 (B.of_float (-2.0)));
  let pi_str = B.to_decimal_string ~digits:10 (B.of_float Float.pi) in
  checkb ("pi prints " ^ pi_str) true
    (String.length pi_str >= 10 && String.sub pi_str 0 6 = "3.1415")

let bf_floor_ceil () =
  let f25 = B.of_float 2.5 and fm25 = B.of_float (-2.5) in
  checkb "floor 2.5" true (B.equal (B.floor f25) B.two);
  checkb "ceil 2.5" true (B.equal (B.ceil f25) (B.of_int 3));
  checkb "floor -2.5" true (B.equal (B.floor fm25) (B.of_int (-3)));
  checkb "ceil -2.5" true (B.equal (B.ceil fm25) (B.of_int (-2)));
  checkb "round 2.5 away" true (B.equal (B.round_to_int f25) (B.of_int 3));
  checkb "round -2.5 away" true (B.equal (B.round_to_int fm25) (B.of_int (-3)));
  checkb "trunc -2.7" true (B.equal (B.trunc (B.of_float (-2.7))) (B.of_int (-2)))

let bf_subnormal_to_float () =
  (* value between two subnormals rounds to the nearest one *)
  let tiny = B.mul_2exp B.one (-1074) in
  checkb "min subnormal" true (B.to_float tiny = ldexp 1.0 (-1074));
  let halftiny = B.mul_2exp B.one (-1075) in
  checkb "half of min rounds to even (0)" true (B.to_float halftiny = 0.0);
  let three_q = B.mul ~prec:60 (B.of_float 1.5) halftiny in
  checkb "0.75 * min rounds up" true (B.to_float three_q = ldexp 1.0 (-1074))

(* ---------- Bigfloat_math vs libm (1-2 ulp tolerance) ---------- *)

let ulps_apart a b =
  if a = b then 0L
  else begin
    let ord f =
      let bits = Int64.bits_of_float f in
      if Int64.compare bits 0L >= 0 then bits
      else Int64.sub Int64.min_int bits
    in
    Int64.abs (Int64.sub (ord a) (ord b))
  end

let close name expected got =
  if Float.is_nan expected then checkb (name ^ " nan") true (Float.is_nan got)
  else
    checkb
      (Printf.sprintf "%s: %h vs %h (%Ld ulps)" name expected got
         (ulps_apart expected got))
      true
      (Int64.compare (ulps_apart expected got) 2L <= 0)

let math_unop name bf ff inputs =
  List.iter
    (fun x -> close (Printf.sprintf "%s(%h)" name x) (ff x)
        (B.to_float (bf ~prec:53 (B.of_float x))))
    inputs

let standard_inputs =
  [ 0.5; 1.0; 2.0; -0.5; -1.0; 0.001; -0.001; 10.0; -10.0; 100.0; 0.9999;
    1.0001; 3.14159; -2.71828; 1e-10; -1e-10; 55.5; 0.25 ]

let math_exp () =
  math_unop "exp" M.exp Stdlib.exp (standard_inputs @ [ 700.0; -700.0 ]);
  checkb "exp -inf" true (B.to_float (M.exp ~prec:53 B.neg_inf) = 0.0);
  checkb "exp overflow" true (B.to_float (M.exp ~prec:53 (B.of_float 1e10)) = infinity)

let math_log () =
  math_unop "log" M.log Stdlib.log
    [ 0.5; 1.0; 2.0; 10.0; 1e-300; 1e300; 0.9999999; 1.0000001; 3.0 ];
  checkb "log 0" true (B.to_float (M.log ~prec:53 B.zero) = neg_infinity);
  checkb "log neg" true (B.is_nan (M.log ~prec:53 B.minus_one))

let math_trig () =
  let inputs = standard_inputs @ [ 1e8; -1e8; 1.5707963267948966; 3.141592653589793 ] in
  math_unop "sin" M.sin Stdlib.sin inputs;
  math_unop "cos" M.cos Stdlib.cos inputs;
  math_unop "tan" M.tan Stdlib.tan inputs

let math_inverse_trig () =
  let inputs = [ 0.5; -0.5; 0.999; -0.999; 0.001; 1.0; -1.0; 0.0 ] in
  math_unop "asin" M.asin Stdlib.asin inputs;
  math_unop "acos" M.acos Stdlib.acos inputs;
  math_unop "atan" M.atan Stdlib.atan (standard_inputs @ [ 1e10; -1e10 ])

let math_atan2 () =
  List.iter
    (fun (y, x) ->
      close
        (Printf.sprintf "atan2(%h,%h)" y x)
        (Stdlib.atan2 y x)
        (B.to_float (M.atan2 ~prec:53 (B.of_float y) (B.of_float x))))
    [ (1.0, 1.0); (1.0, -1.0); (-1.0, 1.0); (-1.0, -1.0); (0.0, 1.0);
      (0.0, -1.0); (1.0, 0.0); (-1.0, 0.0); (3.0, 4.0); (-5.0, 12.0) ]

let math_hyperbolic () =
  math_unop "sinh" M.sinh Stdlib.sinh standard_inputs;
  math_unop "cosh" M.cosh Stdlib.cosh standard_inputs;
  math_unop "tanh" M.tanh Stdlib.tanh standard_inputs

let math_pow () =
  List.iter
    (fun (x, y) ->
      close
        (Printf.sprintf "pow(%h,%h)" x y)
        (Float.pow x y)
        (B.to_float (M.pow ~prec:53 (B.of_float x) (B.of_float y))))
    [ (2.0, 10.0); (2.0, 0.5); (10.0, -3.0); (1.5, 300.0); (0.5, 0.5);
      (-2.0, 3.0); (-2.0, 2.0); (7.0, 0.0); (0.0, 0.0); (0.0, 3.0);
      (1.0, Float.nan); (2.0, 1000.0); (1.0000001, 1e7) ]

let math_misc () =
  math_unop "cbrt" M.cbrt Float.cbrt [ 8.0; -8.0; 27.0; 2.0; 1e12; -0.001 ];
  math_unop "log2" M.log2 Float.log2 [ 8.0; 3.0; 1e10; 0.25 ];
  math_unop "log10" M.log10 Float.log10 [ 1000.0; 3.0; 1e-5 ];
  math_unop "expm1" M.expm1 Float.expm1 [ 1e-10; -1e-10; 0.5; -0.5; 3.0 ];
  math_unop "log1p" M.log1p Float.log1p [ 1e-10; -1e-10; 0.5; -0.5; 3.0 ];
  List.iter
    (fun (x, y) ->
      close
        (Printf.sprintf "hypot(%h,%h)" x y)
        (Float.hypot x y)
        (B.to_float (M.hypot ~prec:53 (B.of_float x) (B.of_float y))))
    [ (3.0, 4.0); (1e200, 1e200); (1e-200, 1e-200); (0.0, -5.0) ];
  List.iter
    (fun (x, y) ->
      let expected = Float.rem x y in
      let got = B.to_float (M.fmod (B.of_float x) (B.of_float y)) in
      checkb (Printf.sprintf "fmod(%h,%h): %h vs %h" x y expected got) true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)))
    [ (7.5, 2.0); (-7.5, 2.0); (7.5, -2.0); (1e300, 7.0); (0.1, 0.03) ]

let math_fma () =
  List.iter
    (fun (x, y, z) ->
      let expected = Float.fma x y z in
      let got =
        B.to_float (M.fma ~prec:53 (B.of_float x) (B.of_float y) (B.of_float z))
      in
      checkb (Printf.sprintf "fma(%h,%h,%h)" x y z) true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)))
    [ (1.0, 1.0, 1.0); (1e16, 1e16, -1e32); (0.1, 0.1, -0.01); (3.0, 4.0, 5.0) ]

let math_pi_ln2 () =
  checkb "pi at 53" true (B.to_float (M.pi ~prec:53) = Float.pi);
  close "ln2" (Stdlib.log 2.0) (B.to_float (M.ln2 ~prec:53));
  (* higher precision is consistent: rounding pi@2000 to 53 gives pi *)
  checkb "pi 2000 -> 53" true
    (B.to_float (B.round ~prec:53 (M.pi ~prec:2000)) = Float.pi)

(* ---------- precision-doubling oracle for the libm kernels ---------- *)

(* Every check: f at p equals f at 2p rounded to p bits
   ([Fuzz.Oracle.doubling_check], which widens the reference past a
   double-rounding midpoint), for p in the list below. *)
let oracle_precs = [ 53; 113; 256; 1000 ]

(* each function with a map of a generated argument into its domain *)
let shadow_fns =
  let id x = x and pos x = B.abs x in
  (* |x| / 2^(magnitude + 1): into (-1/2, 1/2), sign kept *)
  let unit x =
    match x with
    | B.Fin f -> B.mul_2exp x (-(f.B.exp + N.bit_length f.B.mant + 1))
    | _ -> x
  in
  let second y f ~prec x = f ~prec x y in
  [
    ("sin", M.sin, id); ("cos", M.cos, id); ("tan", M.tan, id);
    ("exp", M.exp, id); ("expm1", M.expm1, id); ("exp2", M.exp2, id);
    ("log", M.log, pos); ("log1p", M.log1p, pos); ("log2", M.log2, pos);
    ("log10", M.log10, pos); ("atan", M.atan, id); ("asin", M.asin, unit);
    ("acos", M.acos, unit); ("sinh", M.sinh, id); ("cosh", M.cosh, id);
    ("tanh", M.tanh, id); ("cbrt", M.cbrt, id);
    ("atan2 _ -3", second (B.of_int (-3)) M.atan2, id);
    ("pow _ 0.3", second (B.of_float 0.3) M.pow, pos);
  ]

let doubling_ok name f ~prec x =
  match Fuzz.Oracle.doubling_check ~prec (fun ~prec -> f ~prec x) with
  | None -> ()
  | Some d ->
      Alcotest.failf "%s(%s): %s" name (B.to_decimal_string ~digits:40 x) d

(* a random mantissa of exactly [bits] bits *)
let random_mant rng bits =
  let rec fill acc n =
    if n = 0 then acc
    else begin
      let k = min n 30 in
      let chunk = Random.State.bits rng land ((1 lsl k) - 1) in
      fill (N.add (N.shift_left acc k) (N.of_int chunk)) (n - k)
    end
  in
  fill N.one (bits - 1)

(* the nearest double by comparing the exact discarded part with half
   an ulp, ties to even; q is the quantum of the result *)
let reference_to_float (x : B.t) =
  match x with
  | B.Fin f ->
      let q = max (-1074) (f.B.exp + N.bit_length f.B.mant - 53) in
      let d = max 0 (q - f.B.exp) in
      let keep = N.shift_right f.B.mant d in
      let low2 = N.shift_left (N.sub f.B.mant (N.shift_left keep d)) 1 in
      let c = N.compare low2 (N.shift_left N.one d) in
      let keep = if c > 0 || (c = 0 && not (N.is_even keep)) then N.add keep N.one else keep in
      let v = Float.ldexp (float_of_int (Option.get (N.to_int_opt keep))) (f.B.exp + d) in
      if f.B.neg then -.v else v
  | _ -> B.to_float x

(* 10^5 values: mantissas of 1 to 1100 bits with magnitudes in the
   subnormal range, at the underflow and overflow edges and in between;
   a third are exact ties at the rounding position *)
let bf_to_float_reference () =
  let rng = Random.State.make [| 31 |] in
  for i = 1 to 100_000 do
    let mag =
      match i mod 4 with
      | 0 -> -1080 + Random.State.int rng 70
      | 1 -> 1015 + Random.State.int rng 15
      | 2 -> -1130 + Random.State.int rng 60
      | _ -> Random.State.int rng 2000 - 1000
    in
    let bits, mant =
      if i mod 3 = 0 then
        (* a tie: n kept bits, then a lone round bit *)
        let n = max 1 (min 53 (mag + 1074)) in
        (n + 1, N.add (N.shift_left (random_mant rng n) 1) N.one)
      else
        let bits = 1 + Random.State.int rng 1100 in
        (bits, random_mant rng bits)
    in
    let x = B.make ~neg:(Random.State.bool rng) ~mant ~exp:(mag - bits) in
    let want = reference_to_float x and got = B.to_float x in
    if Int64.bits_of_float want <> Int64.bits_of_float got then
      Alcotest.failf "to_float %s: %h, want %h" (B.to_decimal_string ~digits:30 x)
        got want
  done

(* [gen rng prec] draws an argument; [n] of them per precision and
   function, fewer at 1000 bits *)
let doubling_case gen () =
  List.iter
    (fun prec ->
      let rng = Random.State.make [| prec |] in
      let n = if prec >= 1000 then 4 else 12 in
      List.iter
        (fun (name, f, dom) ->
          for _ = 1 to n do
            doubling_ok name f ~prec (dom (gen rng prec))
          done)
        shadow_fns)
    oracle_precs

(* dense p-bit values with |x| in [2^-4, 2^5) *)
let gen_dense rng prec =
  B.make ~neg:(Random.State.bool rng) ~mant:(random_mant rng prec)
    ~exp:(Random.State.int rng 9 - 4 - prec)

let gen_double rng _prec =
  let x = Float.pow 10.0 (Random.State.float rng 15.0) in
  B.of_float (if Random.State.bool rng then x else -.x)

(* k pi/2 rounded to p bits: the remainder is about 2^-p of x *)
let gen_near_half_pi rng prec =
  let wp = prec + 64 in
  let k = B.of_int (1 + Random.State.int rng 1_000_000) in
  B.round ~prec (B.mul_2exp (B.mul ~prec:wp k (M.pi ~prec:wp)) (-1))

(* x = k pi/2 + r with |r| near pi/4, where the series is longest, or
   near 2^-30, where it is shortest; r and x dense p-bit values *)
let gen_reduced ~quarter rng prec =
  let wp = (2 * prec) + 64 in
  let u = B.make ~neg:false ~mant:(random_mant rng prec) ~exp:(-prec) in
  let r =
    if quarter then B.sub ~prec:wp (B.mul_2exp (M.pi ~prec:wp) (-2)) (B.mul_2exp u (-20))
    else B.mul_2exp u (-29)
  in
  let k = B.of_int (if Random.State.bool rng then 0 else Random.State.int rng 1_000_000) in
  let kpi = B.mul_2exp (B.mul ~prec:wp k (M.pi ~prec:wp)) (-1) in
  let r = if Random.State.bool rng then B.neg r else r in
  B.round ~prec (B.add ~prec:wp kpi r)

(* the series kernels up to 2000 bits, where they sum in the most
   accumulators, on dense arguments and both ends of the reduced range *)
let doubling_series () =
  List.iter
    (fun prec ->
      let rng = Random.State.make [| prec; 5 |] in
      let n = if prec >= 1000 then 2 else 6 in
      List.iter
        (fun (name, f) ->
          List.iter
            (fun gen ->
              for _ = 1 to n do
                doubling_ok name f ~prec (gen rng prec)
              done)
            [ gen_dense; gen_reduced ~quarter:true; gen_reduced ~quarter:false ])
        [ ("sin", M.sin); ("cos", M.cos); ("tan", M.tan); ("exp", M.exp) ])
    (oracle_precs @ [ 2000 ])

let gen_tiny rng prec =
  B.make ~neg:(Random.State.bool rng) ~mant:(random_mant rng prec)
    ~exp:(-200 - prec - Random.State.int rng 100)

(* x = g^-1 (m) at 3p bits for m the midpoint of two adjacent p-bit
   floats in [1/2, 1): f x lies within about 2^-3p of m, so neither f at
   p nor its 2p reference can round without widening. For cbrt, x = m^3
   exactly: the root is the midpoint itself, which must round to even. *)
let doubling_hard_cases () =
  let cube ~prec:_ m = B.mul ~prec:(max_int / 16) (B.mul ~prec:(max_int / 16) m m) m in
  List.iter
    (fun prec ->
      let rng = Random.State.make [| prec; 3 |] in
      List.iter
        (fun (name, f, inv) ->
          for _ = 1 to 3 do
            let m =
              B.make ~neg:false
                ~mant:(N.add (N.shift_left (random_mant rng prec) 1) N.one)
                ~exp:(-(prec + 1))
            in
            doubling_ok name f ~prec (inv ~prec:(3 * prec) m)
          done)
        [
          ("sin", M.sin, M.asin); ("cos", M.cos, M.acos); ("tan", M.tan, M.atan);
          ("atan", M.atan, M.tan); ("exp", M.exp, M.log); ("log", M.log, M.exp);
          ("expm1", M.expm1, M.log1p); ("log1p", M.log1p, M.expm1);
          ("exp2", M.exp2, M.log2); ("log2", M.log2, M.exp2);
          ("cbrt", M.cbrt, cube);
        ])
    oracle_precs

(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"bigfloat add commutes" ~count:300
      (pair (float_range (-1e10) 1e10) (float_range (-1e10) 1e10))
      (fun (a, b) ->
        B.equal
          (B.add ~prec:200 (B.of_float a) (B.of_float b))
          (B.add ~prec:200 (B.of_float b) (B.of_float a)));
    Test.make ~name:"bigfloat mul by inverse near one" ~count:200
      (float_range 0.001 1000.0) (fun a ->
        let x = B.of_float a in
        let inv = B.div ~prec:200 B.one x in
        let p = B.mul ~prec:200 x inv in
        (* within 2^-195 of 1 *)
        let d = B.abs (B.sub ~prec:200 p B.one) in
        B.lt d (B.mul_2exp B.one (-190)));
    Test.make ~name:"natural add assoc" ~count:200
      (triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000))
      (fun (a, b, c) ->
        N.equal
          (N.add (N.of_int a) (N.add (N.of_int b) (N.of_int c)))
          (N.add (N.add (N.of_int a) (N.of_int b)) (N.of_int c)));
    Test.make ~name:"bigfloat exp/log roundtrip" ~count:60
      (float_range 0.01 100.0) (fun a ->
        let x = B.of_float a in
        let r = M.exp ~prec:200 (M.log ~prec:260 x) in
        let d = B.abs (B.sub ~prec:200 r x) in
        B.is_zero d || B.lt (B.div ~prec:60 d x) (B.mul_2exp B.one (-180)));
  ]

let () =
  Random.init 0x5eed;
  Alcotest.run "bignum"
    [
      ( "natural",
        [
          Alcotest.test_case "of_int roundtrip" `Quick nat_of_int_roundtrip;
          Alcotest.test_case "add/sub small" `Quick nat_add_sub_small;
          Alcotest.test_case "mul small" `Quick nat_mul_small;
          Alcotest.test_case "divmod property" `Quick nat_divmod_property;
          Alcotest.test_case "string roundtrip" `Quick nat_string_roundtrip;
          Alcotest.test_case "isqrt" `Quick nat_isqrt;
          Alcotest.test_case "isqrt of squares" `Quick nat_isqrt_squares;
          Alcotest.test_case "mul_shift_right" `Quick nat_mul_shift_right;
          Alcotest.test_case "karatsuba matches" `Quick nat_karatsuba_matches;
          Alcotest.test_case "shifts" `Quick nat_shifts;
          Alcotest.test_case "to_float" `Quick nat_to_float;
        ] );
      ( "bigint",
        [
          Alcotest.test_case "arith vs int" `Quick int_arith;
          Alcotest.test_case "compare/sign" `Quick int_compare_sign;
        ] );
      ( "bigfloat",
        [
          Alcotest.test_case "float roundtrip" `Quick float_roundtrip;
          Alcotest.test_case "add = hardware" `Quick bf_add_matches_hardware;
          Alcotest.test_case "sub = hardware" `Quick bf_sub_matches_hardware;
          Alcotest.test_case "mul = hardware" `Quick bf_mul_matches_hardware;
          Alcotest.test_case "div = hardware" `Quick bf_div_matches_hardware;
          Alcotest.test_case "sqrt = hardware" `Quick bf_sqrt_matches_hardware;
          Alcotest.test_case "high precision beats cancellation" `Quick
            bf_extended_precision_catches_cancellation;
          Alcotest.test_case "compare" `Quick bf_compare;
          Alcotest.test_case "decimal parse" `Quick bf_decimal_parse;
          Alcotest.test_case "decimal print" `Quick bf_decimal_print;
          Alcotest.test_case "floor/ceil/round/trunc" `Quick bf_floor_ceil;
          Alcotest.test_case "subnormal conversion" `Quick bf_subnormal_to_float;
          Alcotest.test_case "to_float = reference rounding" `Quick
            bf_to_float_reference;
        ] );
      ( "bigfloat_math",
        [
          Alcotest.test_case "exp" `Quick math_exp;
          Alcotest.test_case "log" `Quick math_log;
          Alcotest.test_case "trig" `Quick math_trig;
          Alcotest.test_case "inverse trig" `Quick math_inverse_trig;
          Alcotest.test_case "atan2" `Quick math_atan2;
          Alcotest.test_case "hyperbolic" `Quick math_hyperbolic;
          Alcotest.test_case "pow" `Quick math_pow;
          Alcotest.test_case "misc" `Quick math_misc;
          Alcotest.test_case "fma" `Quick math_fma;
          Alcotest.test_case "pi and ln2" `Quick math_pi_ln2;
        ] );
      ( "doubling",
        [
          Alcotest.test_case "dense p-bit arguments" `Quick
            (doubling_case gen_dense);
          Alcotest.test_case "doubles up to 1e15" `Quick
            (doubling_case gen_double);
          Alcotest.test_case "near k pi/2" `Quick
            (doubling_case gen_near_half_pi);
          Alcotest.test_case "below 2^-200" `Quick (doubling_case gen_tiny);
          Alcotest.test_case "midpoint hard cases" `Quick doubling_hard_cases;
          Alcotest.test_case "series to 2000 bits, |r| near pi/4 or 2^-30"
            `Quick doubling_series;
        ] );
      ( "properties",
        (* seeded per-test so `dune runtest` is deterministic; set
           QCHECK_SEED to explore a different stream *)
        List.mapi
          (fun i t ->
            let base =
              try int_of_string (Sys.getenv "QCHECK_SEED") with _ -> 0x5eed
            in
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| base; i |])
              t)
          qcheck_tests );
    ]
