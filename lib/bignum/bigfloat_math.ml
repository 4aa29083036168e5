module N = Natural
module B = Bigfloat

let guard = 32

(* ---------- cached constants ---------- *)

(* atan(1/k) scaled by 2^wp, by the Gregory series in integer arithmetic:
   sum_i (-1)^i / ((2i+1) k^(2i+1)). Error below one unit of the scaling. *)
let atan_inv_scaled ~wp k =
  let k2 = k * k in
  if k2 >= 1 lsl 31 then invalid_arg "atan_inv_scaled: k too large";
  let term = ref (fst (N.divmod_int (N.shift_left N.one wp) k)) in
  let acc = ref N.zero in
  let i = ref 0 in
  let negate = ref false in
  while not (N.is_zero !term) do
    let t, _ = N.divmod_int !term (2 * !i + 1) in
    acc := (if !negate then N.sub !acc t else N.add !acc t);
    term := fst (N.divmod_int !term k2);
    negate := not !negate;
    incr i
  done;
  !acc

(* The constant cache is shared process-wide state reachable from every
   shadow-real execution, so it must survive concurrent domains
   (fpgrind.fleet runs analyses in parallel). A mutex guards the table;
   holding it across [compute] also means a constant is computed once
   rather than racing duplicates. Values are immutable, so readers never
   see a partial entry. *)
let const_cache : (string * int, B.t) Hashtbl.t = Hashtbl.create 16
let const_cache_lock = Mutex.create ()

let cached name prec compute =
  (* Compute at the next power-of-two precision at least [prec] so repeated
     nearby precisions share one entry. *)
  let bucket =
    let p = ref 64 in
    while !p < prec do
      p := !p * 2
    done;
    !p
  in
  let key = (name, bucket) in
  Mutex.lock const_cache_lock;
  let v =
    match Hashtbl.find_opt const_cache key with
    | Some v -> v
    | None -> (
        match compute bucket with
        | v ->
            Hashtbl.add const_cache key v;
            v
        | exception e ->
            Mutex.unlock const_cache_lock;
            raise e)
  in
  Mutex.unlock const_cache_lock;
  B.round ~prec v

(* Machin: pi = 16 atan(1/5) - 4 atan(1/239). *)
let pi ~prec =
  cached "pi" (prec + guard) (fun wp ->
      let a = atan_inv_scaled ~wp:(wp + 8) 5 in
      let b = atan_inv_scaled ~wp:(wp + 8) 239 in
      let scaled = N.sub (N.mul_int a 16) (N.mul_int b 4) in
      B.round ~prec:wp (B.make ~neg:false ~mant:scaled ~exp:(-(wp + 8))))

(* ln 2 = sum_{i>=1} 1 / (i 2^i), in integer arithmetic scaled by 2^wp. *)
let ln2 ~prec =
  cached "ln2" (prec + guard) (fun wp ->
      let wpx = wp + 16 in
      let acc = ref N.zero in
      for i = 1 to wpx do
        let t, _ = N.divmod_int (N.shift_left N.one (wpx - i)) i in
        acc := N.add !acc t
      done;
      B.round ~prec:wp (B.make ~neg:false ~mant:!acc ~exp:(-wpx)))

(* ---------- series helpers ---------- *)

(* magnitude: position of the leading bit (value in [2^(m-1), 2^m));
   min_int for zero, max_int for specials *)
let magnitude t =
  match t with
  | B.Fin f -> f.B.exp + N.bit_length f.B.mant
  | B.Zero _ -> min_int
  | B.Nan | B.Inf _ -> max_int

(* exp(r) for |r| <= 0.4, Taylor at precision wp. *)
let exp_series ~wp r =
  let acc = ref B.one and term = ref B.one and i = ref 1 in
  let continue = ref true in
  while !continue do
    term := B.div_int ~prec:wp (B.mul ~prec:wp !term r) !i;
    if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc !term;
      incr i
    end
  done;
  !acc

let exp ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.zero
  | B.Zero _ -> B.one
  | B.Fin _ ->
      let wp = prec + guard in
      if magnitude x < -(prec + 8) then
        (* 1 + x already rounds correctly at this precision *)
        B.add ~prec B.one x
      else begin
        let xf = B.to_float x in
        let kf = Float.round (xf /. 0.6931471805599453) in
        if Float.abs kf > 1e9 then
          (if kf > 0.0 then B.Inf false else B.zero)
        else begin
          let k = int_of_float kf in
          let kbits = if k = 0 then 0 else 64 in
          let l2 = ln2 ~prec:(wp + kbits) in
          let r =
            B.sub ~prec:(wp + kbits) x (B.mul ~prec:(wp + kbits) (B.of_int k) l2)
          in
          let s = exp_series ~wp r in
          B.round ~prec (B.mul_2exp s k)
        end
      end

(* 2 atanh(z) = 2 (z + z^3/3 + z^5/5 + ...) at precision wp. *)
let atanh2_series ~wp z =
  let z2 = B.mul ~prec:wp z z in
  let acc = ref z and term = ref z and i = ref 1 in
  let continue = ref true in
  while !continue do
    term := B.mul ~prec:wp !term z2;
    let t = B.div_int ~prec:wp !term (2 * !i + 1) in
    if B.is_zero t || magnitude t < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc t;
      incr i
    end
  done;
  B.mul_2exp !acc 1

(* [log] sums the series of x itself inside (0.70, 1.5) *)
let log_near_lo = B.of_decimal_string ~prec:64 "0.70"
let log_near_hi = B.of_decimal_string ~prec:64 "1.5"

let log ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.Nan
  | B.Zero _ -> B.Inf true
  | B.Fin f when f.B.neg -> B.Nan
  | B.Fin _ ->
      if B.equal x B.one then B.zero
      else begin
        let wp = prec + guard in
        (* Near 1, avoid the e*ln2 split entirely (cancellation). *)
        let near_one = B.gt x log_near_lo && B.lt x log_near_hi in
        if near_one then begin
          (* When x = 1 + eps the leading term of 2 atanh((x-1)/(x+1)) has
             magnitude eps, so ask for enough working precision. *)
          let d = B.sub ~prec:wp x B.one in
          let extra = max 0 (-magnitude d) + 8 in
          let wp = wp + extra in
          let z =
            B.div ~prec:wp (B.sub ~prec:wp x B.one) (B.add ~prec:wp x B.one)
          in
          B.round ~prec (atanh2_series ~wp z)
        end
        else begin
          let b = magnitude x in
          (* m in [1, 2) *)
          let m = B.mul_2exp x (1 - b) in
          let z =
            B.div ~prec:wp (B.sub ~prec:wp m B.one) (B.add ~prec:wp m B.one)
          in
          let lnm = atanh2_series ~wp z in
          let l2 = ln2 ~prec:wp in
          B.round ~prec
            (B.add ~prec:wp (B.mul ~prec:wp (B.of_int (b - 1)) l2) lnm)
        end
      end

let log1p ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.Nan
  | B.Zero _ -> x
  | B.Fin _ ->
      if B.le x B.minus_one then
        if B.equal x B.minus_one then B.Inf true else B.Nan
      else if magnitude x < -2 then begin
        (* ln(1+x) = 2 atanh(x / (x+2)): no cancellation for small x *)
        let wp = prec + guard in
        let z = B.div ~prec:wp x (B.add ~prec:wp x B.two) in
        B.round ~prec (atanh2_series ~wp z)
      end
      else begin
        let wp = prec + guard in
        log ~prec (B.add ~prec:wp B.one x)
      end

let expm1 ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.minus_one
  | B.Zero _ -> x
  | B.Fin _ ->
      if magnitude x < -1 then begin
        (* Taylor sum_{i>=1} x^i / i!, no cancellation *)
        let wp = prec + guard + max 0 (-magnitude x) in
        let acc = ref x and term = ref x and i = ref 2 in
        let continue = ref true in
        while !continue do
          term := B.div_int ~prec:wp (B.mul ~prec:wp !term x) !i;
          if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
            continue := false
          else begin
            acc := B.add ~prec:wp !acc !term;
            incr i
          end
        done;
        B.round ~prec !acc
      end
      else begin
        let wp = prec + guard in
        B.sub ~prec (exp ~prec:wp x) B.one
      end

let log2 ~prec x =
  let wp = prec + guard in
  let l = log ~prec:wp x in
  match l with
  | B.Nan | B.Inf _ -> l
  | B.Zero _ | B.Fin _ -> B.div ~prec l (ln2 ~prec:wp)

let log10 ~prec x =
  let wp = prec + guard in
  let l = log ~prec:wp x in
  match l with
  | B.Nan | B.Inf _ -> l
  | _ -> B.div ~prec l (log ~prec:wp (B.of_int 10))

let exp2 ~prec x =
  match x with
  | B.Fin _ when B.is_integer x -> begin
      match B.to_bigint x with
      | Some bi -> begin
          match Bigint.to_int_opt bi with
          | Some k when abs k < 1 lsl 30 -> B.mul_2exp B.one k
          | _ -> if B.is_negative x then B.zero else B.Inf false
        end
      | None -> assert false
    end
  | _ ->
      let wp = prec + guard in
      exp ~prec (B.mul ~prec:wp x (ln2 ~prec:wp))

(* Reduce x modulo pi/2: returns (quadrant mod 4, remainder) with
   |remainder| <= pi/4 (up to rounding), both at precision wp. Uses a Ziv
   retry so the remainder keeps wp significant bits even near multiples of
   pi/2. *)
let trig_reduce ~wp x =
  let xmag = max 0 (magnitude x) in
  if xmag > 8192 then None
  else begin
    let p0 = wp + xmag + guard in
    let rec attempt extra tries =
      let p = wp + xmag + extra in
      let halfpi = B.mul_2exp (pi ~prec:p) (-1) in
      let q = B.round_to_int (B.div ~prec:p x halfpi) in
      let r = B.sub ~prec:p x (B.mul ~prec:p q halfpi) in
      if
        tries < 3
        && (not (B.is_zero r))
        && magnitude r < magnitude x - xmag - extra + (2 * guard)
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
        Some (qmod, r)
      end
    in
    (* The first Ziv attempt's outcome is often decidable from a float
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
       retry threshold at extra = guard is 2*guard - guard = guard = 32;
       any nonzero remainder has |r| <~ pi/4 and magnitude <= 1 < 32, so
       attempt 0 retries iff r <> 0.  And r <> 0 is guaranteed when x has
       fewer significant bits than pi at precision p0: r = 0 would need
       x = q * halfpi_p0 exactly, whose canonical mantissa (q' * pi_mant
       for the odd part q' of q, both odd) is at least as wide as
       pi_p0's.  In that case attempt 0 always retries, so we start the
       recursion directly at its successor (extra = 3*guard, tries = 1). *)
    let ax = Float.abs (B.to_float x) in
    if ax <= 0.78 && B.precision_of x <= p0 then Some (0, x)
    else if
      ax >= 0.79 && B.precision_of x < B.precision_of (pi ~prec:p0)
    then attempt (guard + max 64 (2 * guard)) 1
    else attempt guard 0
  end

(* ---------- sin, cos and tan: fixed-point series, Ziv rounding ---------- *)

(* floor(|r| * 2^f) *)
let to_fixed ~f r =
  match r with
  | B.Fin fr ->
      let s = fr.B.exp + f in
      if s >= 0 then N.shift_left fr.B.mant s else N.shift_right fr.B.mant (-s)
  | B.Zero _ | B.Nan | B.Inf _ -> N.zero

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
  let y = N.shift_right (N.mul rr rr) f in
  let t0 = if cos then N.shift_left N.one f else rr in
  let rec go k t s =
    let p = N.mul_shift_right t y f in
    let d = if cos then ((2 * k) - 1) * (2 * k) else 2 * k * ((2 * k) + 1) in
    let t, _ = N.divmod_int p d in
    if N.is_zero t then (s, N.of_int (4 * (k + 1)))
    (* the computed terms never increase, so s >= t when subtracting *)
    else go (k + 1) t (if k land 1 = 1 then N.sub s t else N.add s t)
  in
  go 1 t0 t0

(* Ziv's rounding test: s / 2^f rounded to [prec] bits, provided every
   value within e of s rounds the same way. Rounding is monotone, so the
   two ends decide it; [None] asks for a wider evaluation. *)
let round_fixed ~prec ~f s e =
  let at m = B.round ~prec (B.make ~neg:false ~mant:m ~exp:(-f)) in
  if N.compare s e <= 0 then None
  else begin
    let lo = at (N.sub s e) in
    if B.equal lo (at (N.add s e)) then Some lo else None
  end

(* min 0 (magnitude r): a sin(r) result needs f to grow as |r| shrinks *)
let lead r = if B.is_zero r then 0 else min 0 (magnitude r)

(* Ziv's loop shared by sin, cos and tan. [eval ~w ~err q r] gets x
   reduced at working precision w to quadrant q and remainder r, and
   [err ~f], a bound in units of 2^-f on |r - (x - q pi/2)|. It returns
   the correctly rounded result, or [None] when its rounding test is
   ambiguous; the loop then doubles w.

   The reduction bound. Either [trig_reduce] returns r = x, exactly
   (then q = 0: x - q halfpi rounds to x only when q halfpi = 0), or it
   computes, at some p >= w + xmag + 32 with xmag = max 0 (magnitude x):
   halfpi = pi_p / 2 with |halfpi - pi/2| < 2^(1-p); an integer q with
   |q| <= 2^xmag; and r = round_p (x - round_p (q halfpi)) with |r| < 1.
   The three errors are below |q| 2^(1-p) + 2^(xmag+1-p) + 2^-p
   < 2^(xmag+3-p) <= 2^(-w-29). *)
let trig ~prec x fallback eval =
  let rec go w =
    match trig_reduce ~wp:w x with
    | None -> B.of_float (fallback (B.to_float x))
    | Some (q, r) -> (
        let err ~f =
          if B.equal r x then N.zero
          else N.shift_left N.one (max 0 (f - w - 29))
        in
        match eval ~w ~err q r with Some v -> v | None -> go (2 * w))
  in
  go (prec + guard)

(* sin (r + q pi/2) is sin r, cos r, -sin r, -cos r for q = 0..3, and
   cos (r + q pi/2) is cos r, -sin r, -cos r, sin r. *)
let sin_cos ~prec ~cos x =
  trig ~prec x (if cos then Stdlib.cos else Stdlib.sin) (fun ~w ~err q r ->
      let use_cos = (q land 1 = 1) <> cos in
      let f = w + 16 - if use_cos then 0 else lead r in
      let s, e = trig_series ~cos:use_cos ~f r in
      let neg =
        (if cos then q = 1 || q = 2 else q >= 2)
        <> ((not use_cos) && B.is_negative r)
      in
      round_fixed ~prec ~f s (N.add e (err ~f))
      |> Option.map (fun v -> if neg then B.neg v else v))

let sin ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> x
  | B.Fin _ -> sin_cos ~prec ~cos:false x

let cos ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> B.one
  | B.Fin _ -> sin_cos ~prec ~cos:true x

(* tan (r + q pi/2) is tan r for even q and -cos r / sin r for odd q;
   the quotient of the two series' intervals bounds it. *)
let tan ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> x
  | B.Fin _ ->
      trig ~prec x Stdlib.tan (fun ~w ~err q r ->
          let f = w + 16 - lead r in
          let series cos =
            let v, e = trig_series ~cos ~f r in
            (v, N.add e (err ~f))
          in
          let (n, en), (d, ed) =
            if q land 1 = 0 then (series false, series true)
            else (series true, series false)
          in
          if N.compare n en <= 0 || N.compare d ed <= 0 then None
          else begin
            let quo a b =
              B.div ~prec
                (B.make ~neg:false ~mant:a ~exp:0)
                (B.make ~neg:false ~mant:b ~exp:0)
            in
            let lo = quo (N.sub n en) (N.add d ed) in
            if B.equal lo (quo (N.add n en) (N.sub d ed)) then
              Some (if (q land 1 = 1) <> B.is_negative r then B.neg lo else lo)
            else None
          end)

(* atan for finite x via 8 angle-halving reductions then the Gregory
   series. *)
let atan ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf n ->
      let h = B.mul_2exp (pi ~prec) (-1) in
      if n then B.neg h else h
  | B.Zero _ -> x
  | B.Fin f ->
      let wp = prec + guard in
      let ax = B.abs x in
      let big = B.gt ax B.one in
      let y = if big then B.div ~prec:wp B.one ax else ax in
      (* halve the angle 8 times: y <- y / (1 + sqrt(1+y^2)) *)
      let reductions = if magnitude y < -8 then 0 else 8 in
      let z = ref y in
      for _ = 1 to reductions do
        let s =
          B.sqrt ~prec:wp (B.add ~prec:wp B.one (B.mul ~prec:wp !z !z))
        in
        z := B.div ~prec:wp !z (B.add ~prec:wp B.one s)
      done;
      (* Gregory series *)
      let z2 = B.mul ~prec:wp !z !z in
      let acc = ref !z and term = ref !z and i = ref 1 in
      let continue = ref true in
      while !continue do
        term := B.neg (B.mul ~prec:wp !term z2);
        let t = B.div_int ~prec:wp !term ((2 * !i) + 1) in
        if B.is_zero t || magnitude t < magnitude !acc - wp - 4 then
          continue := false
        else begin
          acc := B.add ~prec:wp !acc t;
          incr i
        end
      done;
      let angle = B.mul_2exp !acc reductions in
      let angle =
        if big then
          B.sub ~prec:wp (B.mul_2exp (pi ~prec:wp) (-1)) angle
        else angle
      in
      B.round ~prec (if f.B.neg then B.neg angle else angle)

let atan2 ~prec y x =
  match (y, x) with
  | B.Nan, _ | _, B.Nan -> B.Nan
  | B.Zero ny, B.Zero nx ->
      (* C99: atan2(+-0, +0) = +-0; atan2(+-0, -0) = +-pi *)
      if nx then
        let p = pi ~prec in
        if ny then B.neg p else p
      else B.Zero ny
  | B.Zero ny, _ when not (B.is_negative x) -> B.Zero ny
  | B.Zero ny, _ ->
      let p = pi ~prec in
      if ny then B.neg p else p
  | _, B.Zero _ ->
      let h = B.mul_2exp (pi ~prec) (-1) in
      if B.is_negative y then B.neg h else h
  | B.Inf ny, B.Inf nx ->
      let wp = prec + guard in
      let q = B.mul_2exp (pi ~prec:wp) (-2) in
      let v = if nx then B.mul ~prec:wp (B.of_int 3) q else q in
      B.round ~prec (if ny then B.neg v else v)
  | B.Inf ny, _ ->
      let h = B.mul_2exp (pi ~prec) (-1) in
      if ny then B.neg h else h
  | _, B.Inf nx ->
      if nx then begin
        let p = pi ~prec in
        if B.is_negative y then B.neg p else p
      end
      else B.Zero (B.is_negative y)
  | B.Fin _, B.Fin fx ->
      let wp = prec + guard in
      let base = atan ~prec:wp (B.div ~prec:wp y x) in
      if not fx.B.neg then B.round ~prec base
      else begin
        let p = pi ~prec:wp in
        let v =
          if B.is_negative y then B.sub ~prec:wp base p
          else B.add ~prec:wp base p
        in
        B.round ~prec v
      end

let asin ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> x
  | B.Fin f ->
      let ax = B.abs x in
      if B.gt ax B.one then B.Nan
      else if B.equal ax B.one then begin
        let h = B.mul_2exp (pi ~prec) (-1) in
        if f.B.neg then B.neg h else h
      end
      else begin
        let wp = prec + guard in
        let c =
          B.sqrt ~prec:wp (B.sub ~prec:wp B.one (B.mul ~prec:wp x x))
        in
        atan2 ~prec x c
      end

let acos ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> B.mul_2exp (pi ~prec) (-1)
  | B.Fin f ->
      let ax = B.abs x in
      if B.gt ax B.one then B.Nan
      else if B.equal ax B.one then
        if f.B.neg then pi ~prec else B.zero
      else begin
        let wp = prec + guard in
        let s =
          B.sqrt ~prec:wp (B.sub ~prec:wp B.one (B.mul ~prec:wp x x))
        in
        atan2 ~prec s x
      end

let sinh ~prec x =
  match x with
  | B.Nan | B.Inf _ | B.Zero _ -> x
  | B.Fin f ->
      if magnitude x < -1 then begin
        (* Taylor: x + x^3/3! + ... avoids exp cancellation near zero *)
        let wp = prec + guard in
        let x2 = B.mul ~prec:wp x x in
        let acc = ref x and term = ref x and k = ref 1 in
        let continue = ref true in
        while !continue do
          term :=
            B.div_int ~prec:wp
              (B.mul ~prec:wp !term x2)
              ((2 * !k) * ((2 * !k) + 1));
          if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
            continue := false
          else begin
            acc := B.add ~prec:wp !acc !term;
            incr k
          end
        done;
        B.round ~prec !acc
      end
      else begin
        let wp = prec + guard in
        let e = exp ~prec:wp x and en = exp ~prec:wp (B.neg x) in
        ignore f;
        B.round ~prec (B.mul_2exp (B.sub ~prec:wp e en) (-1))
      end

let cosh ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf _ -> B.Inf false
  | B.Zero _ -> B.one
  | B.Fin _ ->
      let wp = prec + guard in
      let e = exp ~prec:wp x and en = exp ~prec:wp (B.neg x) in
      B.round ~prec (B.mul_2exp (B.add ~prec:wp e en) (-1))

let tanh ~prec x =
  match x with
  | B.Nan | B.Zero _ -> x
  | B.Inf n -> if n then B.minus_one else B.one
  | B.Fin _ ->
      let wp = prec + guard in
      B.round ~prec (B.div ~prec:wp (sinh ~prec:wp x) (cosh ~prec:wp x))

(* x^k for an int k by repeated squaring, rounding each step at wp. *)
let pow_int_bf ~wp x k =
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then B.mul ~prec:wp acc b else acc in
      go acc (B.mul ~prec:wp b b) (e lsr 1)
    end
  in
  if k >= 0 then go B.one x k
  else B.div ~prec:wp B.one (go B.one x (-k))

let pow ~prec x y =
  match (x, y) with
  | _, B.Zero _ -> B.one (* pow(x, 0) = 1 even for nan per C99 *)
  | _, _ when B.equal x B.one -> B.one (* pow(1, y) = 1 even for nan *)
  | B.Nan, _ | _, B.Nan -> B.Nan
  | _, B.Inf ny -> begin
      let ax = B.abs x in
      match B.cmp ax B.one with
      | Some 0 -> B.one
      | Some c ->
          if (c > 0) = not ny then B.Inf false else B.zero
      | None -> B.Nan
    end
  | B.Inf nx, _ ->
      let y_odd_int =
        B.is_integer y
        && (match B.to_bigint y with
           | Some bi -> (match Bigint.to_int_opt bi with
               | Some i -> i land 1 = 1
               | None -> false)
           | None -> false)
      in
      if B.is_negative y then B.Zero (nx && y_odd_int)
      else if nx && y_odd_int then B.Inf true
      else B.Inf false
  | B.Zero nz, _ ->
      let y_odd_int =
        B.is_integer y
        && (match B.to_bigint y with
           | Some bi -> (match Bigint.to_int_opt bi with
               | Some i -> i land 1 = 1
               | None -> false)
           | None -> false)
      in
      if B.is_negative y then B.Inf (nz && y_odd_int)
      else B.Zero (nz && y_odd_int)
  | B.Fin fx, B.Fin _ ->
      let wp = prec + guard in
      let int_exp =
        if B.is_integer y then
          match B.to_bigint y with
          | Some bi -> Bigint.to_int_opt bi
          | None -> None
        else None
      in
      begin
        match int_exp with
        | Some k when abs k <= 1 lsl 22 ->
            B.round ~prec (pow_int_bf ~wp:(wp + 16) x k)
        | _ ->
            if fx.B.neg then B.Nan
            else begin
              (* relative error of exp(y ln x) scales with |y ln x| *)
              let est = Float.abs (B.to_float y *. Stdlib.log (B.to_float x)) in
              let extra =
                if Float.is_nan est || est < 2.0 then 8
                else min 1024 (8 + int_of_float (Float.log2 est))
              in
              let wp2 = wp + extra in
              exp ~prec (B.mul ~prec:wp2 y (log ~prec:wp2 x))
            end
      end

let cbrt ~prec x =
  match x with
  | B.Nan | B.Inf _ | B.Zero _ -> x
  | B.Fin f ->
      let wp = prec + guard in
      let ax = B.abs x in
      let r = exp ~prec:wp (B.div ~prec:wp (log ~prec:wp ax) (B.of_int 3)) in
      (* one Newton step sharpens the exp/log route: r <- (2r + a/r^2)/3 *)
      let r =
        B.div ~prec:wp
          (B.add ~prec:wp (B.mul ~prec:wp B.two r)
             (B.div ~prec:wp ax (B.mul ~prec:wp r r)))
          (B.of_int 3)
      in
      B.round ~prec (if f.B.neg then B.neg r else r)

let hypot ~prec x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan ->
      if B.is_inf x || B.is_inf y then B.Inf false else B.Nan
  | B.Inf _, _ | _, B.Inf _ -> B.Inf false
  | _ ->
      let wp = prec + guard in
      B.sqrt ~prec
        (B.add ~prec:wp (B.mul ~prec:wp x x) (B.mul ~prec:wp y y))

let fma ~prec x y z =
  let p = B.mul ~prec:(max_int / 16) x y in
  B.add ~prec p z

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

let copysign x s =
  let n = B.is_negative s in
  if B.is_negative x = n then x else B.neg x

let fdim ~prec x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan -> B.Nan
  | _ -> if B.gt x y then B.sub ~prec x y else B.zero
