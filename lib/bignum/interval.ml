(* Fixed-point intervals and Ziv's rounding test: the currency of the
   correctly rounded kernels in Bigfloat_math.

   A value [a] stands for a real known to lie in
   (-1)^a.neg [(a.m - a.e) 2^a.x, (a.m + a.e) 2^a.x]. Every kernel
   returns one with a derived bound e, and the operations below keep
   the bound rigorous. *)

module N = Natural
module B = Bigfloat

type t = { neg : bool; m : N.t; e : N.t; x : int }

let of_int n = { neg = false; m = N.of_int n; e = N.zero; x = 0 }

(* floor(|r| * 2^f) *)
let to_fixed ~f r =
  match r with
  | B.Fin fr ->
      let s = fr.B.exp + f in
      if s >= 0 then N.shift_left fr.B.mant s else N.shift_right fr.B.mant (-s)
  | B.Zero _ | B.Nan | B.Inf _ -> N.zero

(* Ziv's rounding test: the interval rounded to [prec] bits, provided
   every value in it rounds the same way. Rounding is monotone, so the
   two ends decide it; [None] asks for a wider evaluation. *)
let round ~prec a =
  if N.compare a.m a.e <= 0 then None
  else begin
    let at m = B.round ~prec (B.make ~neg:a.neg ~mant:m ~exp:a.x) in
    let lo = at (N.sub a.m a.e) in
    if B.equal lo (at (N.add a.m a.e)) then Some lo else None
  end

(* Ziv's loop: [approx ~w] carries about w correct bits, and w doubles
   until the rounding is decided. It starts 32 bits past [prec], so a
   retry happens about once in 2^30 calls. It cannot decide a value
   that is exactly a rounding midpoint, nor exactly zero: callers
   return those directly. Should one slip through (or a bound be
   wrong), the loop raises after six doublings rather than growing its
   numbers until memory runs out. *)
let ziv ~prec approx =
  let rec go w =
    match round ~prec (approx ~w) with
    | Some v -> v
    | None when w < 64 * (prec + 32) -> go (2 * w)
    | None -> failwith (Printf.sprintf "Interval.ziv: undecided at %d bits" w)
  in
  go (prec + 32)

(* a at exponent -f; shifting right floors m and e, which moves the
   interval by under 2 units *)
let fixed ~f a =
  let t = a.x + f in
  if t >= 0 then { a with m = N.shift_left a.m t; e = N.shift_left a.e t; x = -f }
  else
    let m = N.shift_right a.m (-t) and e = N.shift_right a.e (-t) in
    { a with m; e = N.add e N.two; x = -f }

(* keep about w bits of m *)
let trim ~w a =
  let t = N.bit_length a.m - w in
  if t <= 0 then a else fixed ~f:(-(a.x + t)) a

(* a + b, aligned exactly: the bounds add. An operand below one unit of
   an inexact other only widens it by that unit, so a small term never
   drags a huge one down to its exponent. *)
let rec add a b =
  let below c d =
    (not (N.is_zero d.e)) && N.bit_length (N.add c.m c.e) + c.x <= d.x
  in
  if below b a then { a with e = N.add a.e N.one }
  else if below a b then add b a
  else begin
    let x = min a.x b.x in
    let up c v = N.shift_left v (c.x - x) in
    let ma = up a a.m and mb = up b b.m in
    let e = N.add (up a a.e) (up b b.e) in
    if a.neg = b.neg then { neg = a.neg; m = N.add ma mb; e; x }
    else if N.compare ma mb >= 0 then { neg = a.neg; m = N.sub ma mb; e; x }
    else { neg = b.neg; m = N.sub mb ma; e; x }
  end

(* |(ma + da)(mb + db) - ma mb| <= ma eb + ea (mb + eb) *)
let mul ~w a b =
  let e = N.add (N.mul a.m b.e) (N.mul a.e (N.add b.m b.e)) in
  trim ~w { neg = a.neg <> b.neg; m = N.mul a.m b.m; e; x = a.x + b.x }

(* q = floor (ma 2^t / mb) with about w bits. For mb > eb,
   |a/b - ma/mb| <= (ea mb + ma eb) / (mb (mb - eb)); scaled by 2^t,
   its floor plus one, and one more for q's floor, bound the error. A
   divisor interval that reaches zero gives an undecidable result. *)
let div ~w a b =
  if N.compare b.m b.e <= 0 then { neg = false; m = N.zero; e = N.one; x = 0 }
  else begin
    let t = max 0 (w + N.bit_length b.m - N.bit_length a.m) in
    let q, _ = N.divmod (N.shift_left a.m t) b.m in
    let num = N.shift_left (N.add (N.mul a.e b.m) (N.mul a.m b.e)) t in
    let eq, _ = N.divmod num (N.mul b.m (N.sub b.m b.e)) in
    { neg = a.neg <> b.neg; m = q; e = N.add eq N.two; x = a.x - b.x - t }
  end

(* the value, further off by at most n 2^q times itself (q <= 0) *)
let widen ?(n = N.one) q a =
  let d = N.shift_right (N.mul (N.add a.m a.e) n) (-q) in
  { a with e = N.add a.e (N.add d N.one) }

(* the value, further off by at most 2^q *)
let widen_abs q a =
  { a with e = N.add a.e (N.shift_left N.one (max 0 (q - a.x))) }

(* (sign, |a - b|) of two naturals *)
let diff a b =
  if N.compare a b >= 0 then (false, N.sub a b) else (true, N.sub b a)

(* (y / 2^z, s - z) for the z trailing zero bits of y (at most s): a
   series factor short-multiplied with it gives the same floor or one
   less, at the cost of y's significant bits only. The float estimates
   that seed log and atan make their series factors 53 or 106 bits. *)
let short_factor y s =
  if N.is_zero y then (y, s)
  else
    let z = min s (N.trailing_zeros y) in
    (N.shift_right y z, s - z)
