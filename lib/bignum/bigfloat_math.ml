module N = Natural
module B = Bigfloat
open Interval

(* magnitude: position of the leading bit (value in [2^(m-1), 2^m));
   min_int for zero, max_int for specials *)
let magnitude t =
  match t with
  | B.Fin f -> f.B.exp + N.bit_length f.B.mant
  | B.Zero _ -> min_int
  | B.Nan | B.Inf _ -> max_int

let exact ~f m = { neg = false; m; e = N.zero; x = -f }

(* ---------- cached constants ---------- *)

(* Constants are computed at the next power-of-two precision at least
   [prec] so repeated nearby precisions share one entry. *)
let rec bucket ?(p = 64) prec = if p >= prec then p else bucket ~p:(2 * p) prec

(* The constant cache is shared process-wide state reachable from every
   shadow-real execution, so it must survive concurrent domains
   (fpgrind.fleet runs analyses in parallel). A mutex guards the table
   but is not held while a constant is computed, because ln 10 is
   computed by [log], which reads ln 2. Two domains may then both
   compute a missing entry; the values are equal and the first stored
   is kept. [compute wp] must be within one ulp at wp bits. *)
let const_cache : (string * int, B.t) Hashtbl.t = Hashtbl.create 16
let const_cache_lock = Mutex.create ()

let cached name prec compute =
  let key = (name, bucket prec) in
  let find () = Hashtbl.find_opt const_cache key in
  match Mutex.protect const_cache_lock find with
  | Some v -> v
  | None ->
      let v = compute (bucket prec) in
      Mutex.protect const_cache_lock (fun () ->
          match find () with
          | Some v -> v
          | None ->
              Hashtbl.add const_cache key v;
              v)

(* floor (c 2^f) for a cached constant c < 4, within 2 of c 2^f *)
let const_fixed name compute ~f =
  { (exact ~f (to_fixed ~f (cached name (f + 2) compute))) with e = N.two }

(* atan(1/k) scaled by 2^wp, by the Gregory series in integer
   arithmetic: sum_i (-1)^i / ((2i+1) k^(2i+1)). Each term's floors lose
   under 2 and the signs alternate, so the error stays below wp units. *)
let atan_inv_scaled ~wp k =
  let k2 = k * k in
  let term = ref (fst (N.divmod_int (N.shift_left N.one wp) k)) in
  let acc = ref N.zero and i = ref 0 in
  while not (N.is_zero !term) do
    let t, _ = N.divmod_int !term ((2 * !i) + 1) in
    acc := if !i land 1 = 1 then N.sub !acc t else N.add !acc t;
    term := fst (N.divmod_int !term k2);
    incr i
  done;
  !acc

(* Machin: pi = 16 atan(1/5) - 4 atan(1/239), 32 bits past wp *)
let pi_fixed =
  const_fixed "pi" (fun wp ->
      let wx = wp + 32 in
      let a = atan_inv_scaled ~wp:wx 5 and b = atan_inv_scaled ~wp:wx 239 in
      let scaled = N.sub (N.mul_int a 16) (N.mul_int b 4) in
      B.round ~prec:wp (B.make ~neg:false ~mant:scaled ~exp:(-wx)))

(* ln 2 = sum_{i>=1} 1 / (i 2^i), scaled by 2^wx: under wx + 1 units *)
let ln2_fixed =
  const_fixed "ln2" (fun wp ->
      let wx = wp + 32 in
      let acc = ref N.zero in
      for i = 1 to wx do
        acc := N.add !acc (fst (N.divmod_int (N.shift_left N.one (wx - i)) i))
      done;
      B.round ~prec:wp (B.make ~neg:false ~mant:!acc ~exp:(-wx)))

let pi ~prec = ziv ~prec (fun ~w -> pi_fixed ~f:w)
let ln2 ~prec = ziv ~prec (fun ~w -> ln2_fixed ~f:w)

(* +-pi/2 and +-pi, correctly rounded *)
let signed_pi ~prec neg = if neg then B.neg (pi ~prec) else pi ~prec
let half_pi ~prec neg = B.mul_2exp (signed_pi ~prec neg) (-1)

(* ---------- exp: reduce by k ln 2 and 2^-s, Taylor, s squarings ---------- *)

let ln2_f = 0.6931471805599453

(* exp x is out of range, +inf or 0, when |x / ln 2| rounds past 1e9 *)
let exp_out_of_range xf = Float.abs (Float.round (xf /. ln2_f)) > 1e9

(* exp x for finite x in range, with relative error about 2^-(w+6).

   Reduction. k = x / ln 2 toward zero from the float quotient,
   corrected until 0 <= |v| < L, v of x's sign, for v = +-X - k L,
   X = floor (|x| 2^g), L = floor (ln 2 2^g) within 2: |k| <= 2^(kb+1)
   and v is within 1 + 2 |k| < 2^(kb+3) of 2^g (x - k ln 2). With
   g = f - s + kb + 3, R = floor (|v| / 2^(kb+3)) gives rho = R / 2^f
   within 2^(1-f) of |r|, r = (x - k ln 2) / 2^s, |r| < 2^-s. A short
   x with |x| < ln 2 stays a short series factor.

   Series. 2^f exp (+-rho) = sum (+-1)^i tau_i, tau_0 = 2^f,
   tau_i = tau_(i-1) rho / i. The loop takes t_i = floor (P_i / i) for
   P_i the short product of t_(i-1) and R, so 0 <= t_i <= tau_i and
   tau_i - t_i < (tau_(i-1) - t_(i-1) + 2) / i + 1 < 4. It stops at the
   first t_K = 0: tau_K < 4 and the tail, each term at most half the
   last, is below 8. With |exp r - exp (+-rho)| < 3 2^-f, the sum is
   within e_0 = 4 (K + 3) of 2^f exp r.

   Squarings. If |E - v| <= e for v = 2^f exp (2^j r), the short square
   of E is within e (2E + e) / 2^f + 2 of v^2 / 2^f: the new bound is
   the floor of that plus 3. The factors 2E / 2^f multiply to below
   2^(s+2), so f = w + s + 16 leaves about w + 6 good bits. *)
let exp_approx ~w x =
  let s = max 4 (int_of_float (Float.sqrt (float_of_int w)) / 2) in
  let f = w + s + 16 in
  let k0 = int_of_float (Float.trunc (B.to_float x /. ln2_f)) in
  let kb = N.bit_length (N.of_int (abs k0)) in
  let g = f - s + kb + 3 in
  let neg = B.is_negative x in
  let l = Bigint.of_natural (ln2_fixed ~f:g).m in
  let sign, sl = if neg then (-1, Bigint.neg l) else (1, l) in
  let rec reduce k v =
    let sv = if neg then Bigint.neg v else v in
    if Bigint.sign sv < 0 then reduce (k - sign) (Bigint.add v sl)
    else if Bigint.compare sv l >= 0 then reduce (k + sign) (Bigint.sub v sl)
    else (k, N.shift_right (Bigint.magnitude v) (kb + 3))
  in
  let xg = Bigint.make ~neg (to_fixed ~f:g x) in
  let k, r = reduce k0 (Bigint.sub xg (Bigint.mul (Bigint.of_int k0) l)) in
  let r, sr = short_factor r f in
  (* the terms never increase, so alternating partial sums stay positive *)
  let rec series i t sum =
    let t, _ = N.divmod_int (N.mul_shift_right t r sr) i in
    if N.is_zero t then (sum, i)
    else series (i + 1) t (if neg && i land 1 = 1 then N.sub sum t else N.add sum t)
  in
  let one = N.shift_left N.one f in
  let sum, terms = series 1 one one in
  let rec square j m e =
    if j = 0 then { neg = false; m; e; x = k - f }
    else
      let e' = N.shift_right (N.mul e (N.add (N.shift_left m 1) e)) f in
      square (j - 1) (N.mul_shift_right m m f) (N.add e' (N.of_int 3))
  in
  square s sum (N.of_int (4 * (terms + 3)))

(* exp z for an interval z: exp at its exact centre c, widened by
   |exp z - exp c| <= exp c (e^d - 1) <= 2 d exp c for d <= 1 *)
let exp_of ~w z =
  let c = B.make ~neg:z.neg ~mant:z.m ~exp:z.x in
  widen ~n:(N.shift_left z.e 1) z.x (exp_approx ~w c)

let exp ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf n -> if n then B.zero else x
  | B.Zero _ -> B.one
  | B.Fin _ ->
      let xf = B.to_float x in
      (* for tiny x, 1 + x already rounds correctly *)
      if magnitude x < -(prec + 8) then B.add ~prec B.one x
      else if exp_out_of_range xf then if xf > 0.0 then B.Inf false else B.zero
      else ziv ~prec (fun ~w -> exp_approx ~w x)

(* exp x - 1: the subtraction cancels the leading -magnitude x bits of
   exp x when |x| < 1, so exp carries that many more. Below -(w + 8),
   exp x < 2^-(w+8): -1 to that accuracy. *)
let expm1_approx ~w x =
  if B.to_float x < -.float_of_int (w + 8) then
    { neg = true; m = N.shift_left N.one (w + 8); e = N.one; x = -(w + 8) }
  else add (exp_approx ~w:(w + max 0 (-magnitude x)) x) { (of_int 1) with neg = true }

let expm1 ~prec x =
  match x with
  | B.Nan | B.Zero _ -> x
  | B.Inf n -> if n then B.minus_one else x
  | B.Fin _ ->
      let xf = B.to_float x in
      if exp_out_of_range xf then if xf > 0.0 then B.Inf false else B.minus_one
      else ziv ~prec (fun ~w -> expm1_approx ~w x)

(* ---------- log: one exp step from a float estimate ---------- *)

(* [power_series ~f ~alt ~div q y] sums, in fixed point with f fraction
   bits, p_k / div k for k >= 0 (div 0 = 1), alternating when [alt],
   with p_0 = q and p_k the short product of p_(k-1) and y over 2^f.
   For q <= 2^f and y <= 2^(f-2) (up to y's own floor, which each step
   scales down), every p_k is at most the exact p*_k and p*_k - p_k <
   (p*_(k-1) - p_(k-1)) / 4 + 3 < 4, so each term is off by under
   4 / div k + 1 <= 4. The loop stops at the first p_K = 0, where
   p*_K < 4 and the geometric tail is below 6: e = 4 (K + 1). Terms
   never increase, so alternating partial sums stay nonnegative. *)
let power_series ~f ~alt ~div q y =
  let rec go k p s =
    let p = N.mul_shift_right p y f in
    if N.is_zero p then (s, N.of_int (4 * (k + 1)))
    else
      let t, _ = N.divmod_int p (div k) in
      go (k + 1) p (if alt && k land 1 = 1 then N.sub s t else N.add s t)
  in
  go 1 q q

(* log (1 + d) = d - d^2/2 + d^3/3 ... for |d| < 1/4, given D = |d| 2^f
   within eta; the slope is below 4/3, so eta adds under 2 eta *)
let log1p_series ~f ~neg ~eta d =
  let s, e = power_series ~f ~alt:(not neg) ~div:(fun k -> k + 1) d d in
  { neg; m = s; e = N.add e (N.shift_left eta 1); x = -f }

(* log x for finite x > 0, x <> 1, with relative error about 2^-(w+8).

   x = m 2^b with m in [0.75, 1.5), so log x = b ln 2 + log m and
   |log x| >= 0.28 when b <> 0. The float log y of m is within about
   2^-52 of log m. If y = 0, m is within 2^-53 of 1 and log m = log1p
   (m - 1). Otherwise m exp (-y), exp at a short argument with a cheap
   series, is an interval around 1 + d with |d| about 2^-50:
   log m = y + log1p d. The fraction bits f cover w + 16 bits below the
   leading bit of log x. *)
let log_approx ~w x =
  let b =
    let b0 = magnitude x - 1 in
    if B.to_float (B.mul_2exp x (-b0)) >= 1.5 then b0 + 1 else b0
  in
  let m = B.mul_2exp x (-b) in
  let y = Float.log (B.to_float m) in
  let lead =
    if b <> 0 then -2
    else if y <> 0.0 then snd (Float.frexp y) - 1
    else magnitude (B.sub ~prec:64 m B.one) - 1
  in
  let f = w + 16 - min 0 lead in
  let one = N.shift_left N.one f in
  let log_m =
    if y = 0.0 then
      let neg, d = diff (to_fixed ~f m) one in
      log1p_series ~f ~neg ~eta:N.one d
    else begin
      let ee = exp_approx ~w:f (B.of_float (-.y)) in
      let mm = match m with B.Fin fm -> fm | _ -> assert false in
      let ma = { neg = false; m = mm.B.mant; e = N.zero; x = mm.B.exp } in
      let p = fixed ~f (mul ~w:(f + 8) ma ee) in
      let neg, d = diff p.m one in
      assert (N.bit_length d <= f - 2);
      add
        { (exact ~f (to_fixed ~f (B.of_float y))) with neg = y < 0.0; e = N.one }
        (log1p_series ~f ~neg ~eta:p.e d)
    end
  in
  if b = 0 then log_m
  else begin
    (* b ln 2 from L at f + bb + 2 bits: after the shift, within
       (1 + 2|b|) / 2^(bb+2) + 1 < 2 *)
    let bb = N.bit_length (N.of_int (abs b)) in
    let l = (ln2_fixed ~f:(f + bb + 2)).m in
    let bl = N.shift_right (N.mul l (N.of_int (abs b))) (bb + 2) in
    add { neg = b < 0; m = bl; e = N.two; x = -f } log_m
  end

let log ~prec x =
  match x with
  | B.Nan | B.Inf false -> x
  | B.Inf true -> B.Nan
  | B.Zero _ -> B.Inf true
  | B.Fin f when f.B.neg -> B.Nan
  | B.Fin _ ->
      if B.equal x B.one then B.zero else ziv ~prec (fun ~w -> log_approx ~w x)

(* log (1 + x) from u = 1 + x rounded to p bits, p covering w + 16 bits
   below x's leading bit: |log u' - log u| < 2^(1-p) *)
let log1p ~prec x =
  match x with
  | B.Nan | B.Inf false | B.Zero _ -> x
  | B.Inf true -> B.Nan
  | B.Fin _ ->
      if B.le x B.minus_one then
        if B.equal x B.minus_one then B.Inf true else B.Nan
      else
        ziv ~prec (fun ~w ->
            let p = w + 16 + max 0 (-magnitude x) in
            widen_abs (1 - p) (log_approx ~w (B.add ~prec:p B.one x)))

(* log x / c for the interval of a constant c; x = 1 is an exact 0 and
   every other representable result (log2 8) is decided like any value *)
let log_base c ~prec x =
  match x with
  | B.Fin f when (not f.B.neg) && not (B.equal x B.one) ->
      ziv ~prec (fun ~w -> div ~w:(w + 16) (log_approx ~w x) (c ~f:(w + 16)))
  | _ -> log ~prec x

let log2 = log_base ln2_fixed
let log10 = log_base (const_fixed "ln10" (fun wp -> log ~prec:wp (B.of_int 10)))

(* 2^x: exact for integers; x ln 2 from L at f bits covering w + 16 bits
   below the product's units *)
let exp2 ~prec x =
  match x with
  | B.Fin _ when B.is_integer x -> begin
      match Option.bind (B.to_bigint x) Bigint.to_int_opt with
      | Some k when abs k < 1 lsl 30 -> B.mul_2exp B.one k
      | _ -> if B.is_negative x then B.zero else B.Inf false
    end
  | B.Fin fx ->
      let xf = B.to_float x in
      if exp_out_of_range (xf *. ln2_f) then
        if xf > 0.0 then B.Inf false else B.zero
      else
        ziv ~prec (fun ~w ->
            let l = ln2_fixed ~f:(w + 16 + max 0 (magnitude x)) in
            let m = N.mul fx.B.mant l.m and e = N.mul fx.B.mant l.e in
            exp_of ~w { neg = fx.B.neg; m; e; x = fx.B.exp + l.x })
  | _ -> exp ~prec x

(* ---------- sin, cos and tan: fixed-point series ---------- *)

(* Reduce x modulo pi/2: returns (quadrant mod 4, remainder) with
   |remainder| <= pi/4 (up to rounding), both at precision wp, for
   |x| < 2^8192. Retries so the remainder keeps wp significant bits
   even near multiples of pi/2; the first attempt carries [slack] bits
   past wp + xmag. *)
let trig_reduce ~wp x =
  let slack = 32 in
  let xmag = max 0 (magnitude x) in
  let p0 = wp + xmag + slack in
  let rec attempt extra tries =
    let p = wp + xmag + extra in
    let halfpi = B.mul_2exp (pi ~prec:p) (-1) in
    let q = B.round_to_int (B.div ~prec:p x halfpi) in
    let r = B.sub ~prec:p x (B.mul ~prec:p q halfpi) in
    if
      tries < 3
      && (not (B.is_zero r))
      && magnitude r < magnitude x - xmag - extra + (2 * slack)
      && not (B.is_zero q)
    then attempt (extra + max 64 (2 * extra)) (tries + 1)
    else begin
      let qmod =
        match B.to_bigint q with
        | Some bi -> begin
            let m =
              Bigint.divmod bi (Bigint.of_int 4) |> snd |> Bigint.to_int_opt
            in
            match m with Some v -> ((v mod 4) + 4) mod 4 | None -> 0
          end
        | None -> 0
      in
      (qmod, r)
    end
  in
  (* The first attempt's outcome is often decidable from a float
     approximation of |x| alone, letting us skip a full multi-precision
     divide/multiply/subtract round.  Both shortcuts below reproduce the
     loop's behaviour exactly; anything unprovable falls through to the
     plain recursion.

     Case A, |x| <= 0.78: the attempt-0 quotient x/halfpi is correctly
     rounded, and |x|/(pi/2) <= 0.78*(1+2^-52)/1.5707... < 0.497, so it
     rounds to the integer q = 0.  Then r = round_p0(x), which is x
     itself whenever x carries at most p0 significant bits, and q = 0
     forbids a retry: attempt 0 returns (0, x).

     Case B, |x| >= 0.79 (including to_float overflow to infinity):
     the quotient is >= 0.79*(1-2^-52)/1.5708/(1+2^-p) > 0.502, so
     q <> 0.  Here magnitude x >= 0, hence xmag = magnitude x and the
     retry threshold at extra = slack is 2*slack - slack = slack = 32;
     any nonzero remainder has |r| <~ pi/4 and magnitude <= 1 < 32, so
     attempt 0 retries iff r <> 0.  And r <> 0 is guaranteed when x has
     fewer significant bits than pi at precision p0: r = 0 would need
     x = q * halfpi_p0 exactly, whose canonical mantissa (q' * pi_mant
     for the odd part q' of q, both odd) is at least as wide as
     pi_p0's.  In that case attempt 0 always retries, so we start the
     recursion directly at its successor (extra = 3*slack, tries = 1). *)
  let ax = Float.abs (B.to_float x) in
  if ax <= 0.78 && B.precision_of x <= p0 then (0, x)
  else if ax >= 0.79 && B.precision_of x < B.precision_of (pi ~prec:p0) then
    attempt (slack + max 64 (2 * slack)) 1
  else attempt slack 0

(* The Taylor series of sin |r|, or of cos |r| with [~cos:true], for
   |r| < 1 in fixed point with [f] fraction bits: [(s, e)] with
   |2^f sin|r| - s| < e.

   The error bound, in units of 2^-f. Write rho = |r| 2^f,
   y = rho^2 / 2^f, and d_k = 2k(2k+1) for sin, (2k-1)2k for cos. The
   exact terms are tau_0 = rho (sin) or 2^f (cos) and
   tau_k = tau_{k-1} y / (2^f d_k), so 2^f sin|r| = sum (-1)^k tau_k,
   and every tau_k <= 2^f. The kernel computes R = floor rho,
   Y = floor (R^2 / 2^f) and t_k = floor (P_k / d_k), where the short
   product P_k = [N.mul_shift_right t_{k-1} Y f] is
   floor (t_{k-1} Y / 2^f) or one less.
   - Every step rounds down from underestimates, so 0 <= t_k <= tau_k.
   - 0 <= y - Y < (rho + R) / 2^f + 1 < 3, since rho < 2^f.
   - P_k loses less than 2 and the division's floor less than 1 more,
     so delta_k = tau_k - t_k obeys
       delta_k < (tau_{k-1} (y - Y) + Y delta_{k-1}) / (2^f d_k)
                 + 2/d_k + 1
               < (5 + delta_{k-1}) / d_k + 1.
     With delta_0 < 1 (sin) or = 0 (cos), d_1 >= 2 and d_k >= 12 for
     k >= 2, every delta_k < 3.5.
   - The loop stops at the first t_K = 0, so tau_K = delta_K < 3.5. The
     terms decrease (r^2 < d_k), so the alternating tail from K on is at
     most tau_K.
   Summing K kept terms and the tail: the error is below
   3.5 (K + 1) < e = 4 (K + 1). *)
let trig_series ~cos ~f r =
  assert (B.is_zero r || magnitude r <= 0);
  let rr = to_fixed ~f r in
  let y, sy = short_factor (N.shift_right (N.mul rr rr) f) f in
  let t0 = if cos then N.shift_left N.one f else rr in
  let rec go k t s =
    let p = N.mul_shift_right t y sy in
    let d = if cos then ((2 * k) - 1) * (2 * k) else 2 * k * ((2 * k) + 1) in
    let t, _ = N.divmod_int p d in
    if N.is_zero t then (s, N.of_int (4 * (k + 1)))
    (* the computed terms never increase, so s >= t when subtracting *)
    else go (k + 1) t (if k land 1 = 1 then N.sub s t else N.add s t)
  in
  go 1 t0 t0

(* min 0 (magnitude r): a sin(r) result needs f to grow as |r| shrinks *)
let lead r = if B.is_zero r then 0 else min 0 (magnitude r)

(* The series of sin |r| or cos |r| as an interval, for r from x
   reduced at working precision w.

   The reduction error. Either [trig_reduce] returns r = x, exactly
   (then q = 0: x - q halfpi rounds to x only when q halfpi = 0), or it
   computes, at some p >= w + xmag + 32 with xmag = max 0 (magnitude x):
   halfpi = pi_p / 2 with |halfpi - pi/2| < 2^(1-p); an integer q with
   |q| <= 2^xmag; and r = round_p (x - round_p (q halfpi)) with |r| < 1.
   The three errors are below |q| 2^(1-p) + 2^(xmag+1-p) + 2^-p
   < 2^(xmag+3-p) <= 2^(-w-29), 2^(f-w-29) units. *)
let trig_approx ~w ~cos ~f x r =
  let s, e = trig_series ~cos ~f r in
  let err = if B.equal r x then N.zero else N.shift_left N.one (max 0 (f - w - 29)) in
  { (exact ~f s) with e = N.add e err }

(* Ziv's loop over the reduction of x; beyond 2^8192 the reduction is
   not attempted and the double-precision libm value stands in *)
let trig ~prec x fallback approx =
  if magnitude x > 8192 then B.of_float (fallback (B.to_float x))
  else
    ziv ~prec (fun ~w ->
        let q, r = trig_reduce ~wp:w x in
        approx ~w q r)

(* sin (r + q pi/2) is sin r, cos r, -sin r, -cos r for q = 0..3, and
   cos (r + q pi/2) is cos r, -sin r, -cos r, sin r. *)
let sin_cos ~cos ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> if cos then B.one else x
  | B.Fin _ ->
      trig ~prec x (if cos then Stdlib.cos else Stdlib.sin) (fun ~w q r ->
          let use_cos = (q land 1 = 1) <> cos in
          let f = w + 16 - if use_cos then 0 else lead r in
          let neg =
            (if cos then q = 1 || q = 2 else q >= 2)
            <> ((not use_cos) && B.is_negative r)
          in
          { (trig_approx ~w ~cos:use_cos ~f x r) with neg })

let sin = sin_cos ~cos:false
let cos = sin_cos ~cos:true

(* cos y from s = S / 2^f, sin |y| within e_s, for |y| <= pi/4 (up to
   rounding): C = isqrt (2^2f - S^2) is within 2 e_s + 1 of 2^f cos y,
   since |S^2 - s^2| / (C + c) <= e_s (2S + e_s) / (1.4 2^f - 1) and the
   floor loses under 1 more *)
let cos_of_sin ~f (s : Interval.t) =
  let c = N.isqrt (N.sub (N.shift_left N.one (2 * f)) (N.mul s.m s.m)) in
  { (exact ~f c) with e = N.add (N.shift_left s.e 1) N.one }

(* tan (r + q pi/2) is tan r for even q and -cos r / sin r for odd q;
   the reduced |r| <= pi/4 gives cos r from sin r *)
let tan ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> x
  | B.Fin _ ->
      trig ~prec x Stdlib.tan (fun ~w q r ->
          let f = w + 16 - lead r in
          let sin = trig_approx ~w ~cos:false ~f x r in
          let cos = cos_of_sin ~f sin in
          let n, d = if q land 1 = 0 then (sin, cos) else (cos, sin) in
          { (div ~w:(w + 16) n d) with neg = (q land 1 = 1) <> B.is_negative r })

(* ---------- atan: one tan step from a float estimate ---------- *)

(* atan t for t = T / 2^f in [0, 1], T exact, as an interval at f bits.
   Below 2^-6 the series of t itself converges fast enough. Otherwise
   let y = the float atan of t, S its sin at f bits within e_s and
   C its cos from [cos_of_sin] (y <= pi/4). Then
   atan t = y + atan d with d = (t c - s) / (c + t s) = tan (atan t - y),
   |d| about 2^-50, on intervals; atan has slope at most 1. *)
let atan_fixed ~f t =
  let y, d =
    if N.bit_length t <= f - 6 then (0.0, exact ~f t)
    else begin
      let sh = max 0 (N.bit_length t - 60) in
      let y = Float.atan (Float.ldexp (N.to_float (N.shift_right t sh)) (sh - f)) in
      let s, es = trig_series ~cos:false ~f (B.of_float y) in
      let s = { (exact ~f s) with e = es } and t = exact ~f t and w = f + 8 in
      let c = cos_of_sin ~f s in
      let num = add (mul ~w t c) { s with neg = true } in
      (y, fixed ~f (div ~w num (add c (mul ~w t s))))
    end
  in
  assert (N.bit_length d.m <= f - 1);
  let div k = (2 * k) + 1 in
  let a, e = power_series ~f ~alt:true ~div d.m (N.shift_right (N.mul d.m d.m) f) in
  add
    { (exact ~f (to_fixed ~f (B.of_float y))) with e = N.one }
    { d with m = a; e = N.add e d.e }

(* atan (a / b) for finite a, b > 0 with relative error about
   2^-(w+8), from T = floor (2^f a / b) (or b / a), exact up to its
   floor: above 1 as pi/2 - atan (b / a) at f = w + 16; otherwise f
   grows as a / b shrinks, by a - b magnitudes, which overstate the
   ratio's by at most one *)
let atan_ratio ~w a b =
  let ratio ~f a b =
    match (a, b) with
    | B.Fin fa, B.Fin fb ->
        let s = fa.B.exp - fb.B.exp + f in
        if s >= 0 then fst (N.divmod (N.shift_left fa.B.mant s) fb.B.mant)
        else fst (N.divmod fa.B.mant (N.shift_left fb.B.mant (-s)))
    | _ -> assert false
  in
  if B.gt a b then
    let f = w + 16 in
    let r = atan_fixed ~f (ratio ~f b a) in
    (* floor (pi 2^(f-1)) is pi/2 at f bits, within 2 *)
    add { (pi_fixed ~f:(f - 1)) with x = -f } { r with neg = true; e = N.add r.e N.one }
  else
    let f = w + 18 - min 0 (magnitude a - magnitude b + 1) in
    let r = atan_fixed ~f (ratio ~f a b) in
    { r with e = N.add r.e N.one }

let atan ~prec x =
  match x with
  | B.Nan | B.Zero _ -> x
  | B.Inf n -> half_pi ~prec n
  | B.Fin _ ->
      ziv ~prec (fun ~w ->
          { (atan_ratio ~w (B.abs x) B.one) with neg = B.is_negative x })

(* The angle of (x, y) from t = |y| / |x| = a / b: atan t for x > 0,
   pi - atan t for x < 0, with y's sign. When a / b is off from t by
   relative error 2^q, |atan t' - atan t| <= |t' - t| / (1 + t^2) and
   t / (1 + t^2) <= atan t, so the angle is off by at most twice that. *)
let angle ~w ~yneg ~xneg ?q a b =
  let a = atan_ratio ~w a b in
  let a = match q with Some q -> widen (q + 1) a | None -> a in
  let a = if xneg then add (pi_fixed ~f:(-a.x)) { a with neg = true } else a in
  { a with neg = yneg }

let atan2 ~prec y x =
  match (y, x) with
  | B.Nan, _ | _, B.Nan -> B.Nan
  (* C99: atan2(+-0, +-0) and atan2(+-0, x) are +-0 or +-pi by x's sign *)
  | B.Zero ny, _ when B.is_negative x -> signed_pi ~prec ny
  | B.Zero _, _ -> y
  | _, B.Zero _ -> half_pi ~prec (B.is_negative y)
  | B.Inf ny, B.Inf nx -> ziv ~prec (fun ~w -> angle ~w ~yneg:ny ~xneg:nx B.one B.one)
  | B.Inf ny, _ -> half_pi ~prec ny
  | _, B.Inf nx -> if nx then signed_pi ~prec (B.is_negative y) else B.Zero (B.is_negative y)
  | B.Fin fy, B.Fin fx ->
      ziv ~prec (fun ~w ->
          angle ~w ~yneg:fy.B.neg ~xneg:fx.B.neg (B.abs y) (B.abs x))

(* asin x = atan (x / c) and acos x = atan2 (c, x) for c = sqrt (1 - x^2)
   at p bits, as sqrt ((1 - |x|)(1 + |x|)): 1 - |x| is exact for
   |x| >= 1/2, so three roundings leave the quotient within 2^(2-p) *)
let arc ~cos ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> if cos then half_pi ~prec false else x
  | B.Fin f ->
      let ax = B.abs x in
      if B.gt ax B.one then B.Nan
      else if B.equal ax B.one then
        if not cos then half_pi ~prec f.B.neg else if f.B.neg then pi ~prec else B.zero
      else
        ziv ~prec (fun ~w ->
            let p = w + 16 in
            let c = B.mul ~prec:p (B.sub ~prec:p B.one ax) (B.add ~prec:p B.one ax) in
            let c = B.sqrt ~prec:p c in
            if cos then angle ~w ~yneg:false ~xneg:f.B.neg ~q:(2 - p) c ax
            else angle ~w ~yneg:f.B.neg ~xneg:false ~q:(2 - p) ax c)

let asin = arc ~cos:false
let acos = arc ~cos:true

(* ---------- hyperbolic functions from u = expm1 |x| ---------- *)

(* With u = expm1 |x| > 0: sinh |x| = u (u + 2) / (2 (u + 1)) and
   cosh x = (u (u + 2) + 2) / (2 (u + 1)), free of cancellation *)
let hyperbolic ~cosh ~prec x =
  match x with
  | B.Nan -> x
  | B.Inf _ -> if cosh then B.Inf false else x
  | B.Zero _ -> if cosh then B.one else x
  | B.Fin f ->
      if exp_out_of_range (B.to_float x) then B.Inf (f.B.neg && not cosh)
      else
        ziv ~prec (fun ~w ->
            let ww = w + 16 in
            let u = expm1_approx ~w (B.abs x) in
            let n = mul ~w:ww u (add u (of_int 2)) in
            let d = add u (of_int 1) in
            let n = if cosh then add n (of_int 2) else n in
            { (div ~w:ww n { d with x = d.x + 1 }) with neg = f.B.neg && not cosh })

let sinh = hyperbolic ~cosh:false
let cosh = hyperbolic ~cosh:true

(* tanh |x| = v / (v + 2) with v = expm1 (2|x|); for |x| > prec,
   1 - tanh |x| < 2 exp (-2|x|) < 2^-(prec+2), which rounds to 1 *)
let tanh ~prec x =
  match x with
  | B.Nan | B.Zero _ -> x
  | B.Inf n -> if n then B.minus_one else B.one
  | B.Fin f ->
      if B.gt (B.abs x) (B.of_int prec) then if f.B.neg then B.minus_one else B.one
      else
        ziv ~prec (fun ~w ->
            let v = expm1_approx ~w (B.mul_2exp (B.abs x) 1) in
            { (div ~w:(w + 16) v (add v (of_int 2))) with neg = f.B.neg })

(* ---------- pow and cbrt ---------- *)

(* log x for finite x > 0, x <> 1, to relative error under 2^-49:
   log1p of x - 1 (rounded once) near 1, where log would cancel; else
   log m + b ln 2 for x = m 2^b, m in [1/2, 1), |log x| >= 0.4 *)
let float_log x =
  let d = B.to_float (B.sub ~prec:53 x B.one) in
  if Float.abs d < 0.5 then Float.log1p d
  else
    let b = magnitude x in
    Float.log (B.to_float (B.mul_2exp x (-b))) +. (float_of_int b *. ln2_f)

(* x^y = exp (y log x) for x > 0, y not a small integer: log x carries
   the bits that y's magnitude moves above the units, and y log x is
   exact on its interval. The value is a dyadic rational, possibly a
   midpoint Ziv cannot decide, only for y = c / 2^t (c odd, t >= 1)
   and x = a^(2^t), a dyadic (a mantissa a^(2^t) >= 3 needs 2^t bits,
   a power of two an exponent divisible by 2^t, so t <= 62): then
   x^y = a^c, a small integer power or too wide to be a midpoint. *)
let rec pow_pos ~prec x y =
  let fy = match y with B.Fin fy -> fy | _ -> assert false in
  let rec root v t =
    if t = 0 then Some v
    else
      match v with
      | B.Fin f when f.B.exp land 1 = 0 ->
          let s = N.isqrt f.B.mant in
          if N.equal (N.mul s s) f.B.mant then
            root (B.make ~neg:false ~mant:s ~exp:(f.B.exp / 2)) (t - 1)
          else None
      | _ -> None
  in
  let exact_root =
    if fy.B.exp >= 0 || fy.B.exp < -62 then None else root x (-fy.B.exp)
  in
  match (exact_root, N.to_int_opt fy.B.mant) with
  | Some a, Some c -> pow_int ~prec a (if fy.B.neg then -c else c)
  | _ ->
      let yf = B.to_float y and lf = float_log x in
      let zf = yf *. lf in
      (* with both factors normal doubles, zf is within 2^-48 of
         z = y log x relatively (or overflows or underflows with it);
         otherwise, and near the range boundary, z comes from a 64-bit
         log *)
      let normal v = Float.classify_float v = FP_normal in
      let zf =
        if normal yf && normal lf && (Float.abs zf < 6.9e8 || Float.abs zf > 6.95e8)
        then zf
        else
          let l0 = log_approx ~w:64 x in
          B.to_float (B.mul ~prec:64 y (B.make ~neg:l0.neg ~mant:l0.m ~exp:l0.x))
      in
      if exp_out_of_range zf then if zf > 0.0 then B.Inf false else B.zero
      else
        ziv ~prec (fun ~w ->
            let l = log_approx ~w:(w + max 0 (snd (Float.frexp zf) + 1)) x in
            let m = N.mul l.m fy.B.mant and e = N.mul l.e fy.B.mant in
            exp_of ~w { neg = l.neg <> fy.B.neg; m; e; x = l.x + fy.B.exp })

(* x^k for finite x, int k <> 0: powers of two exactly (to +-inf or 0
   past 2^(2^30), as exp2); the exact power with its last multiplication
   (or 1 / x^|k|) correctly rounded when it has at most 4 prec + 64
   bits; otherwise exp (k log |x|), too wide to be a midpoint *)
and pow_int ~prec x k =
  let fx = match x with B.Fin fx -> fx | _ -> assert false in
  let n = abs k and neg = fx.B.neg && k land 1 = 1 in
  if N.equal fx.B.mant N.one then
    if abs fx.B.exp <= (1 lsl 30) / n then B.make ~neg ~mant:N.one ~exp:(fx.B.exp * k)
    else if (fx.B.exp > 0) = (k > 0) then B.Inf neg
    else B.Zero neg
  else if n <= ((4 * prec) + 64) / N.bit_length fx.B.mant then begin
    let exact = B.mul ~prec:(max_int / 16) in
    let rec power n =
      if n = 0 then B.one
      else
        let h = power (n / 2) in
        if n land 1 = 1 then exact (exact h h) x else exact h h
    in
    if k > 0 then B.mul ~prec (power (n - 1)) x else B.div ~prec B.one (power n)
  end
  else
    let v = pow_pos ~prec (B.abs x) (B.of_int k) in
    if neg then B.neg v else v

let pow ~prec x y =
  let int_y =
    if B.is_integer y then Option.bind (B.to_bigint y) Bigint.to_int_opt
    else None
  in
  let odd_int = match int_y with Some i -> i land 1 = 1 | None -> false in
  match (x, y) with
  | _, B.Zero _ -> B.one (* pow(x, 0) = 1 even for nan per C99 *)
  | _, _ when B.equal x B.one -> B.one (* pow(1, y) = 1 even for nan *)
  | B.Nan, _ | _, B.Nan -> B.Nan
  | _, B.Inf ny -> begin
      match B.cmp (B.abs x) B.one with
      | Some 0 -> B.one
      | Some c -> if (c > 0) = not ny then B.Inf false else B.zero
      | None -> B.Nan
    end
  | B.Inf nx, _ ->
      if B.is_negative y then B.Zero (nx && odd_int) else B.Inf (nx && odd_int)
  | B.Zero nz, _ ->
      if B.is_negative y then B.Inf (nz && odd_int) else B.Zero (nz && odd_int)
  | B.Fin fx, B.Fin _ -> begin
      match int_y with
      | Some k when abs k <= 1 lsl 22 -> pow_int ~prec x k
      | _ -> if fx.B.neg then B.Nan else pow_pos ~prec x y
    end

(* floor (cbrt m), by Newton from above: z' = floor ((2z + floor
   (m / z^2)) / 3) is at least floor (cbrt m) (AM-GM) and below z while
   z^3 > m. The seed is the float root of m's top 100 to 102 bits T,
   ceiled plus 2: the float root is within 2^-16 of cbrt T < 2^34 and
   cbrt (T + 1) - cbrt T <= 1/3, so it bounds cbrt m from above. *)
let icbrt m =
  let s = (max 0 (N.bit_length m - 100) + 2) / 3 * 3 in
  let root = Float.cbrt (N.to_float (N.shift_right m s)) in
  let rec go z =
    let q, _ = N.divmod m (N.mul z z) in
    let z' = fst (N.divmod_int (N.add (N.shift_left z 1) q) 3) in
    if N.compare z' z < 0 then go z' else z
  in
  go (N.shift_left (N.of_int (int_of_float (Float.ceil root) + 2)) (s / 3))

(* cbrt |x| 2^j lies in [r, r + 1) for r = icbrt (|x| 2^(3j)) with at
   least prec + 3 bits. Every prec-bit midpoint is then an integer, so
   unless r is the exact root every value in (r, r + 1) rounds like
   r + 1/2: correctly rounded without a Ziv loop. *)
let cbrt ~prec x =
  match x with
  | B.Nan | B.Inf _ | B.Zero _ -> x
  | B.Fin f ->
      let need =
        max (-f.B.exp) ((3 * (prec + 2)) + 1 - N.bit_length f.B.mant - f.B.exp)
      in
      let j = if need >= 0 then (need + 2) / 3 else -(-need / 3) in
      let mm = N.shift_left f.B.mant (f.B.exp + (3 * j)) in
      let r = icbrt mm and neg = f.B.neg in
      B.round ~prec
        (if N.equal (N.mul (N.mul r r) r) mm then B.make ~neg ~mant:r ~exp:(-j)
         else B.make ~neg ~mant:(N.add (N.shift_left r 1) N.one) ~exp:(-j - 1))

(* faithful: x^2 + y^2 rounded at prec + 32 bits, then a correctly
   rounded square root *)
let hypot ~prec x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan -> if B.is_inf x || B.is_inf y then B.Inf false else B.Nan
  | B.Inf _, _ | _, B.Inf _ -> B.Inf false
  | _ ->
      let wp = prec + 32 in
      B.sqrt ~prec (B.add ~prec:wp (B.mul ~prec:wp x x) (B.mul ~prec:wp y y))

let fma ~prec x y z = B.add ~prec (B.mul ~prec:(max_int / 16) x y) z

let fmod x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan | B.Inf _, _ | _, B.Zero _ -> B.Nan
  | B.Zero _, _ -> x
  | B.Fin _, B.Inf _ -> x
  | B.Fin fx, B.Fin fy ->
      (* exact: align mantissas at a common exponent and take the integer
         remainder *)
      let e = min fx.B.exp fy.B.exp in
      let xm = N.shift_left fx.B.mant (fx.B.exp - e) in
      let ym = N.shift_left fy.B.mant (fy.B.exp - e) in
      let _, r = N.divmod xm ym in
      if N.is_zero r then B.Zero fx.B.neg
      else B.make ~neg:fx.B.neg ~mant:r ~exp:e

let copysign x s = if B.is_negative x = B.is_negative s then x else B.neg x

let fdim ~prec x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan -> B.Nan
  | _ -> if B.gt x y then B.sub ~prec x y else B.zero
