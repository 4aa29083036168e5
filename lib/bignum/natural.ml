(* Base-2^31 little-endian limbs, no leading zeros. Products of two limbs
   fit in OCaml's 63-bit native int, which keeps multiplication and Knuth
   division free of overflow checks. *)

type t = int array

let base_bits = 31
let base = 1 lsl base_bits
let limb_mask = base - 1

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero (a : t) = Array.length a = 0

(* Strip leading (high-index) zero limbs to restore canonical form. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Natural.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else
    normalize
      [|
        n land limb_mask;
        (n lsr base_bits) land limb_mask;
        n lsr (2 * base_bits);
      |]

let to_int_opt (a : t) =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | 3 when a.(2) <= 1 ->
      (* limb 2 contributes bit 62, the last usable bit of a 63-bit int *)
      let hi = a.(2) lsl (2 * base_bits) in
      if hi < 0 then None
      else Some (a.(0) lor (a.(1) lsl base_bits) lor hi)
  | _ -> None

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      (if i < la then Array.unsafe_get a i else 0)
      + (if i < lb then Array.unsafe_get b i else 0)
      + !carry
    in
    Array.unsafe_set r i (s land limb_mask);
    carry := s lsr base_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Natural.sub: underflow";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d =
      Array.unsafe_get a i
      - (if i < lb then Array.unsafe_get b i else 0)
      - !borrow
    in
    if d < 0 then begin
      Array.unsafe_set r i (d + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set r i d;
      borrow := 0
    end
  done;
  normalize r

let mul_int (a : t) (k : int) : t =
  if k < 0 then invalid_arg "Natural.mul_int: negative";
  if k = 0 || is_zero a then zero
  else if k < base then begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (Array.unsafe_get a i * k) + !carry in
      Array.unsafe_set r i (p land limb_mask);
      carry := p lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end
  else invalid_arg "Natural.mul_int: factor too large"

let mul_school (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = Array.unsafe_get a i in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p =
            (ai * Array.unsafe_get b j) + Array.unsafe_get r (i + j) + !carry
          in
          Array.unsafe_set r (i + j) (p land limb_mask);
          carry := p lsr base_bits
        done;
        (* The final carry fits in one limb: ai*b(j) <= (B-1)^2 and the
           running sum stays below B^2. *)
        Array.unsafe_set r (i + lb) (Array.unsafe_get r (i + lb) + !carry)
      end
    done;
    normalize r
  end

(* Below this limb count Karatsuba's split/recombine allocations cost
   more than the ~25% of limb products they save; 1000-bit operands (34
   limbs) land in schoolbook, which profiles ~2x faster there. *)
let karatsuba_threshold = 72

let split_at (a : t) (k : int) : t * t =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), Array.sub a k (la - k))

let shift_limbs (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la = 1 then mul_int b a.(0)
  else if lb = 1 then mul_int a b.(0)
  else if min la lb < karatsuba_threshold then mul_school a b
  else begin
    (* Karatsuba: split both operands at half the larger length. *)
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end


(* the bit length of the top limb by halving: 16, 8, 4, 2, 1 *)
let bit_length_raw (a : int array) (la : int) =
  if la = 0 then 0
  else begin
    let rec go v n step =
      if step = 0 then n + v
      else if v lsr step > 0 then go (v lsr step) (n + step) (step / 2)
      else go v n (step / 2)
    in
    ((la - 1) * base_bits) + go a.(la - 1) 0 16
  end

let bit_length (a : t) = bit_length_raw a (Array.length a)

let testbit (a : t) (i : int) =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* floor (a / 2^lo) mod 2^n for n <= 62, from the three limbs that can
   hold it *)
let bits (a : t) lo n =
  let limb = lo / base_bits and off = lo mod base_bits in
  let get i = if i < Array.length a then Array.unsafe_get a i else 0 in
  ((get limb lsr off)
  lor (get (limb + 1) lsl (base_bits - off))
  lor (get (limb + 2) lsl ((2 * base_bits) - off)))
  land ((1 lsl n) - 1)

(* Is any bit strictly below position [i] set? Scans from the bottom, so
   for odd values (canonical Bigfloat mantissas) it answers in O(1). *)
let any_bit_below (a : t) (i : int) =
  if i <= 0 || is_zero a then false
  else begin
    let limb = i / base_bits and off = i mod base_bits in
    let la = Array.length a in
    let full = min limb la in
    let rec scan k = k < full && (a.(k) <> 0 || scan (k + 1)) in
    scan 0
    || (off > 0 && limb < la && a.(limb) land ((1 lsl off) - 1) <> 0)
  end

(* Are all bits in [lo, hi) set? (false for an empty range) *)
let all_ones_between (a : t) (lo : int) (hi : int) =
  lo < hi
  &&
  let rec go i = i >= hi || (testbit a i && go (i + 1)) in
  go lo

let is_even (a : t) = is_zero a || a.(0) land 1 = 0

let shift_left (a : t) (n : int) : t =
  if n < 0 then invalid_arg "Natural.shift_left: negative";
  if n = 0 || is_zero a then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (Array.unsafe_get a i lsl bits) lor !carry in
        Array.unsafe_set r (i + limbs) (v land limb_mask);
        carry := v lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right (a : t) (n : int) : t =
  if n < 0 then invalid_arg "Natural.shift_right: negative";
  if n = 0 || is_zero a then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else
        for i = 0 to lr - 1 do
          let lo = Array.unsafe_get a (i + limbs) lsr bits in
          let hi =
            if i + limbs + 1 < la then
              (Array.unsafe_get a (i + limbs + 1) lsl (base_bits - bits))
              land limb_mask
            else 0
          in
          Array.unsafe_set r i (lo lor hi)
        done;
      normalize r
    end
  end

(* Bigfloat addition aligns operands by shifting the higher-exponent one
   left before a full-width add or sub.  Fusing the shift into the
   add/sub writes the shifted operand straight into the result buffer —
   one allocation and one pass instead of three — which matters in series
   evaluation where the alignment gap grows with every term. *)
let write_shifted (a : t) (limbs : int) (bits : int) (r : int array) =
  let la = Array.length a in
  if bits = 0 then Array.blit a 0 r limbs la
  else begin
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (Array.unsafe_get a i lsl bits) lor !carry in
      Array.unsafe_set r (i + limbs) (v land limb_mask);
      carry := v lsr base_bits
    done;
    r.(la + limbs) <- !carry
  end

(* [add_shifted a s b] = a*2^s + b. *)
let add_shifted (a : t) (s : int) (b : t) : t =
  if s < 0 then invalid_arg "Natural.add_shifted: negative shift";
  if s = 0 then add a b
  else if is_zero a then b
  else if is_zero b then shift_left a s
  else begin
    let limbs = s / base_bits and bits = s mod base_bits in
    let la = Array.length a and lb = Array.length b in
    let lr = 1 + max (la + limbs + 1) lb in
    let r = Array.make lr 0 in
    write_shifted a limbs bits r;
    let carry = ref 0 and i = ref 0 in
    while !i < lb || !carry <> 0 do
      let v =
        Array.unsafe_get r !i
        + (if !i < lb then Array.unsafe_get b !i else 0)
        + !carry
      in
      Array.unsafe_set r !i (v land limb_mask);
      carry := v lsr base_bits;
      incr i
    done;
    normalize r
  end

(* [sub_shifted a s b] = a*2^s - b; requires a*2^s >= b. *)
let sub_shifted (a : t) (s : int) (b : t) : t =
  if s < 0 then invalid_arg "Natural.sub_shifted: negative shift";
  if s = 0 then sub a b
  else if is_zero b then shift_left a s
  else begin
    let limbs = s / base_bits and bits = s mod base_bits in
    let la = Array.length a and lb = Array.length b in
    let lr = la + limbs + 1 in
    if is_zero a || lb > lr then
      invalid_arg "Natural.sub_shifted: negative result";
    let r = Array.make lr 0 in
    write_shifted a limbs bits r;
    let borrow = ref 0 and i = ref 0 in
    while (!i < lb || !borrow <> 0) && !i < lr do
      let v =
        Array.unsafe_get r !i
        - (if !i < lb then Array.unsafe_get b !i else 0)
        - !borrow
      in
      if v < 0 then begin
        Array.unsafe_set r !i (v + base);
        borrow := 1
      end
      else begin
        Array.unsafe_set r !i v;
        borrow := 0
      end;
      incr i
    done;
    if !borrow <> 0 then invalid_arg "Natural.sub_shifted: negative result";
    normalize r
  end

(* [mul_shift_right a b s] is floor(a*b / 2^s) or one less. It skips the
   partial products a_i*b_j with i + j < off = s/31 - 2, whose columns
   sum to D < sum_{c<off} (c+1) B^(c+2) < 2 off B^(off+1) <= 2^s for
   off < 2^30 (as B^(off+2) <= 2^s); so the result floor((a*b - D) / 2^s)
   is floor(a*b / 2^s) or one less. A fixed-point series keeps only the
   top of each product, so this halves its multiply cost. *)
let mul_shift_right (a : t) (b : t) (s : int) : t =
  if s < 0 then invalid_arg "Natural.mul_shift_right: negative shift";
  let off = (s / base_bits) - 2 in
  let la = Array.length a and lb = Array.length b in
  if off <= 0 || la = 0 || lb = 0 then shift_right (mul a b) s
  else if la + lb - 1 <= off then zero
  else begin
    (* row-wise schoolbook over the kept triangle; limb k of [r] holds
       column off + k *)
    let r = Array.make (la + lb - off) 0 in
    for i = 0 to la - 1 do
      let ai = Array.unsafe_get a i in
      let j0 = if off - i > 0 then off - i else 0 in
      if ai <> 0 && j0 < lb then begin
        let carry = ref 0 in
        for j = j0 to lb - 1 do
          let k = i + j - off in
          let p =
            (ai * Array.unsafe_get b j) + Array.unsafe_get r k + !carry
          in
          Array.unsafe_set r k (p land limb_mask);
          carry := p lsr base_bits
        done;
        (* as in [mul_school], no earlier row reached this limb *)
        let k = i + lb - off in
        Array.unsafe_set r k (Array.unsafe_get r k + !carry)
      end
    done;
    shift_right (normalize r) (s - (off * base_bits))
  end

(* Short-product multiply-and-round for odd operands.

   [mul_round ~prec a b] rounds a*b to [prec] significant bits (round to
   nearest) and returns [Some (mant, shift)] with
   round(a*b) = mant * 2^shift, or [None] when the caller must fall back
   to the exact product.

   Soundness argument. Both operands are odd (canonical Bigfloat
   mantissas), so the product P is odd: the bits discarded by rounding
   always contain a set bit below the round bit, the tie case is
   impossible, and round-to-nearest reduces to "add the round bit".
   The short product keeps only the partial products a_i*b_j with
   i+j >= off and computes S with P = S*B^off + E where
   0 <= E < off*B^(off+1), i.e. E < 2^44*B^off for off <= 8192. Adding E
   to S*B^off can change bits at positions >= off*31+45 only through a
   carry chain of consecutive set bits, so if some bit of S in the
   window [45, round-bit) is clear, the round bit and everything above
   it are exact. The all-ones window (probability ~2^-window per call)
   falls back to the exact product. *)
let mul_round ~prec (a : t) (b : t) : (t * int) option =
  let la = Array.length a and lb = Array.length b in
  if la < 6 || lb < 6 || prec <= 0 then None
  else if a.(0) land 1 = 0 || b.(0) land 1 = 0 then None
  else begin
    let bl_min = bit_length a + bit_length b - 1 in
    let drop_min = bl_min - prec in
    (* the round bit must sit comfortably above the uncertain window *)
    let off = (drop_min - 1 - 96) / base_bits in
    if off < 2 || off > 8192 then None
    else begin
      let lr = la + lb - off in
      let r = Array.make lr 0 in
      (* Column-major (Comba) accumulation over exactly the pairs with
         [i + j >= off] — the same partial products as a row walk, so
         the truncated sum is bit-identical, but the carry chain runs
         once per column instead of once per product. A column of up to
         [la] products can overflow 63 bits, so each product is split
         into its low and high limb halves and the two are summed
         separately (each bounded by [la * 2^31], comfortably in
         range). *)
      let carry = ref 0 and hi_prev = ref 0 in
      for c = off to la + lb - 2 do
        let i0 = if c - lb + 1 > 0 then c - lb + 1 else 0 in
        let i1 = if c < la - 1 then c else la - 1 in
        (* two independent accumulator pairs halve the add-latency chain;
           products pipeline through the multiplier either way *)
        let lo = ref 0 and hi = ref 0 in
        let lo' = ref 0 and hi' = ref 0 in
        let i = ref i0 in
        while !i + 1 <= i1 do
          let p = Array.unsafe_get a !i * Array.unsafe_get b (c - !i) in
          let q =
            Array.unsafe_get a (!i + 1) * Array.unsafe_get b (c - !i - 1)
          in
          lo := !lo + (p land limb_mask);
          hi := !hi + (p lsr base_bits);
          lo' := !lo' + (q land limb_mask);
          hi' := !hi' + (q lsr base_bits);
          i := !i + 2
        done;
        if !i = i1 then begin
          let p = Array.unsafe_get a !i * Array.unsafe_get b (c - !i) in
          lo := !lo + (p land limb_mask);
          hi := !hi + (p lsr base_bits)
        end;
        let s = !carry + !hi_prev + !lo + !lo' in
        Array.unsafe_set r (c - off) (s land limb_mask);
        carry := s lsr base_bits;
        hi_prev := !hi + !hi'
      done;
      Array.unsafe_set r (lr - 1) (!carry + !hi_prev);
      let s = normalize r in
      let bl_s = bit_length s in
      (* round-bit position within S *)
      let rb_pos = bl_s - prec - 1 in
      if rb_pos < 64 then None
      else if all_ones_between s 45 rb_pos then None
      else begin
        let rb = testbit s rb_pos in
        let keep = shift_right s (rb_pos + 1) in
        let mant = if rb then add keep one else keep in
        Some (mant, bl_s + (off * base_bits) - prec)
      end
    end
  end

let trailing_zeros (a : t) =
  if is_zero a then invalid_arg "Natural.trailing_zeros: zero";
  let i = ref 0 in
  while a.(!i) = 0 do
    incr i
  done;
  let v = ref a.(!i) and b = ref 0 in
  while !v land 1 = 0 do
    incr b;
    v := !v lsr 1
  done;
  (!i * base_bits) + !b

let divmod_int (a : t) (k : int) : t * int =
  if k <= 0 then invalid_arg "Natural.divmod_int: non-positive divisor";
  if k >= base then invalid_arg "Natural.divmod_int: divisor too large";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  (* One float reciprocal-multiply per limb instead of two hardware
     integer divides (or one float divide, whose ~15-cycle latency sits
     on the loop's serial rem chain). cur < k*2^31, so the true quotient
     fits 31 bits; the estimate's relative error — three roundings at
     ~2^-53 each — is under 2^-50, hence off by at most 1 after
     truncation, and a single fixup in each direction restores
     exactness. *)
  let ik = 1.0 /. float_of_int k in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor Array.unsafe_get a i in
    let qi = int_of_float (float_of_int cur *. ik) in
    let r = cur - (qi * k) in
    let qi = if r < 0 then qi - 1 else if r >= k then qi + 1 else qi in
    let r = if r < 0 then r + k else if r >= k then r - k else r in
    Array.unsafe_set q i qi;
    rem := r
  done;
  (normalize q, !rem)

(* Knuth algorithm D (TAOCP vol. 2, 4.3.1). Divisor normalized so its top
   limb has the high bit set, which bounds the qhat correction loop. *)
let divmod_knuth (a : t) (b : t) : t * t =
  let n = Array.length b in
  let shift = base_bits - (bit_length b - ((n - 1) * base_bits)) in
  let u0 = shift_left a shift and v = shift_left b shift in
  assert (Array.length v = n);
  let m = Array.length u0 - n in
  if m < 0 then (zero, a)
  else begin
    (* u gets one extra high limb for the running remainder window *)
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vsec = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      if !qhat >= base then begin
        qhat := base - 1;
        rhat := num - ((base - 1) * vtop)
      end;
      (* n >= 2 always holds here: single-limb divisors use divmod_int. *)
      while
        !rhat < base && !qhat * vsec > (!rhat lsl base_bits) lor u.(j + n - 2)
      do
        decr qhat;
        rhat := !rhat + vtop
      done;
      (* multiply-subtract u[j..j+n] -= qhat * v *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * Array.unsafe_get v i) + !carry in
        carry := p lsr base_bits;
        let d = Array.unsafe_get u (i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          Array.unsafe_set u (i + j) (d + base);
          borrow := 1
        end
        else begin
          Array.unsafe_set u (i + j) d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back one copy of v *)
        u.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land limb_mask;
          c := s lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

(* The double nearest a 2^e among those with n <= 53 significant bits
   at a's top: the kept bits and the round bit in one word, the sticky
   bit below them read in place. *)
let to_float_scaled (a : t) n e =
  let sh = bit_length a - n in
  if sh <= 0 then ldexp (float_of_int (bits a 0 53)) e
  else begin
    let i = bits a (sh - 1) (n + 1) in
    let keep = i lsr 1 in
    let up = i land 1 = 1 && (any_bit_below a (sh - 1) || keep land 1 = 1) in
    ldexp (float_of_int (if up then keep + 1 else keep)) (sh + e)
  end

let to_float (a : t) = to_float_scaled a 53 0

(* floor (sqrt a) for 0 < a < 2^100 by Newton from above: from any start at
   least floor (sqrt a) the iterates decrease monotonically to it. The
   float root of a is within 2^-52 sqrt a < 1/4 of sqrt a, so its
   ceiling plus 2 is such a start, and about 50 bits correct. *)
let isqrt_small (a : t) : t =
  let root = Float.sqrt (to_float a) in
  let x = ref (of_int (int_of_float (Float.ceil root) + 2)) in
  let continue = ref true in
  while !continue do
    let q, _ = divmod a !x in
    let next = shift_right (add !x q) 1 in
    if compare next !x < 0 then x := next else continue := false
  done;
  !x

(* Precision doubling: the root of the top half of a's bits, then one
   Newton step at full width. For bl = bit_length a > 100 and
   k = (bl - 5) / 4, let r = floor (sqrt (a / 4^k)) (r >= 1) and
   x = r 2^k, so x <= sqrt a < x + 2^k. The step
   y = floor ((x + floor (a / x)) / 2) = floor ((x + a / x) / 2) is at
   least s = floor (sqrt a) (AM-GM), and
   (x + a / x) / 2 = sqrt a + (sqrt a - x)^2 / 2x, where
   (sqrt a - x)^2 < 4^k <= 2^((bl-1)/2) / 4 and x >= 2^((bl-1)/2) / 2:
   the excess is below 1/4, so y is s or s + 1. *)
let rec isqrt (a : t) : t =
  let bl = bit_length a in
  if bl = 0 then zero
  else if bl <= 100 then isqrt_small a
  else begin
    let k = (bl - 5) / 4 in
    let x = shift_left (isqrt (shift_right a (2 * k))) k in
    let y = shift_right (add x (fst (divmod a x))) 1 in
    if compare (mul y y) a > 0 then sub y one else y
  end

let pow_int (b : t) (e : int) : t =
  if e < 0 then invalid_arg "Natural.pow_int: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let of_string (s : string) : t =
  if s = "" then invalid_arg "Natural.of_string: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Natural.of_string: bad digit";
      acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0')))
    s;
  !acc

let to_string (a : t) =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref a in
    while not (is_zero !cur) do
      let q, r = divmod_int !cur 1_000_000_000 in
      chunks := r :: !chunks;
      cur := q
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
        let buf = Buffer.create 32 in
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
        Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)
