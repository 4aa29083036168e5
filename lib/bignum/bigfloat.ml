module N = Natural

type t = Nan | Inf of bool | Zero of bool | Fin of fin
and fin = { neg : bool; mant : N.t; exp : int }

let nan = Nan
let pos_inf = Inf false
let neg_inf = Inf true
let zero = Zero false
let neg_zero = Zero true

(* Canonical form: odd mantissa. *)
let make ~neg ~mant ~exp =
  if N.is_zero mant then Zero neg
  else begin
    let tz = N.trailing_zeros mant in
    if tz = 0 then Fin { neg; mant; exp }
    else Fin { neg; mant = N.shift_right mant tz; exp = exp + tz }
  end

let of_int n =
  if n = 0 then zero
  else begin
    let bi = Bigint.of_int n in
    make ~neg:(Bigint.is_negative bi) ~mant:(Bigint.magnitude bi) ~exp:0
  end

let of_bigint bi =
  make ~neg:(Bigint.is_negative bi) ~mant:(Bigint.magnitude bi) ~exp:0

let one = of_int 1
let minus_one = of_int (-1)
let two = of_int 2
let half = make ~neg:false ~mant:N.one ~exp:(-1)

let is_nan = function Nan -> true | Inf _ | Zero _ | Fin _ -> false
let is_inf = function Inf _ -> true | Nan | Zero _ | Fin _ -> false
let is_zero = function Zero _ -> true | Nan | Inf _ | Fin _ -> false

let is_finite = function
  | Zero _ | Fin _ -> true
  | Nan | Inf _ -> false

let is_negative = function
  | Nan -> false
  | Inf n | Zero n -> n
  | Fin f -> f.neg

let precision_of = function
  | Zero _ -> 0
  | Fin f -> N.bit_length f.mant
  | Nan | Inf _ -> invalid_arg "Bigfloat.precision_of: not finite"

(* Highest set bit position: value in [2^(mag-1), 2^mag). *)
let magnitude f = f.exp + N.bit_length f.mant

(* Round a raw (neg, mant, exp) triple to [prec] bits, to nearest with ties
   to even; [sticky] indicates discarded nonzero bits strictly below
   [mant]'s lsb. *)
let round_raw ~prec ~sticky neg mant exp =
  let bl = N.bit_length mant in
  if bl <= prec then
    (* Sticky bits below the lsb never move a nearest rounding. *)
    make ~neg ~mant ~exp
  else begin
    let drop = bl - prec in
    let keep = N.shift_right mant drop in
    (* The discarded part low compares against halfway = 2^(drop-1)
       through two bits: the round bit and whether anything is set below
       it — no need to materialize low itself. *)
    let rb = N.testbit mant (drop - 1) in
    let up =
      rb
      && (N.any_bit_below mant (drop - 1) || sticky || N.testbit keep 0)
    in
    let keep = if up then N.add keep N.one else keep in
    make ~neg ~mant:keep ~exp:(exp + drop)
  end

let round ~prec t =
  match t with
  | Nan | Inf _ | Zero _ -> t
  | Fin f -> round_raw ~prec ~sticky:false f.neg f.mant f.exp

let neg = function
  | Nan -> Nan
  | Inf n -> Inf (not n)
  | Zero n -> Zero (not n)
  | Fin f -> Fin { f with neg = not f.neg }

let abs = function
  | Nan -> Nan
  | Inf _ -> Inf false
  | Zero _ -> Zero false
  | Fin f -> Fin { f with neg = false }

let mul_2exp t k =
  match t with
  | Nan | Inf _ | Zero _ -> t
  | Fin f -> Fin { f with exp = f.exp + k }

(* Compare magnitudes of two finite nonzero values. *)
let compare_mag a b =
  let ma = magnitude a and mb = magnitude b in
  if ma <> mb then Stdlib.compare ma mb
  else begin
    let d = a.exp - b.exp in
    if d >= 0 then N.compare (N.shift_left a.mant d) b.mant
    else N.compare a.mant (N.shift_left b.mant (-d))
  end

(* Precision used for operations that must be exact (integer-valued
   rounding helpers); big enough never to round, small enough that derived
   arithmetic such as [max_align_bits] cannot overflow. *)
let exact = max_int / 16

(* Exact-addition window: operand gap beyond which the smaller operand is
   collapsed to a sticky nudge (faithful rounding; see DESIGN.md). *)
let max_align_bits prec = (2 * min prec exact) + 4096

(* Fused align-and-round: when [hi.exp - lo.exp = g >= 1], the exact sum
   [hi.mant * 2^g +/- lo.mant] has [lo]'s low [g-1] bits strictly below
   the guard bit of any [prec]-bit rounding of a value at least
   [2^(prec-1+g-1)], so they can be folded into a sticky flag instead of
   materialized: compute only [hi*2 +/- ceil/floor(lo / 2^(g-1))] — one
   guard bit wide — and let [round_raw] consume the sticky. Identical
   result to rounding the full-width sum; the subtraction side falls
   back when cancellation eats into the guard bit (the fold is only
   valid while the top stays above [prec] bits). *)

let add_fin ~prec (a : fin) (b : fin) =
  if a.neg = b.neg then begin
    (* same sign: magnitude addition *)
    let hi, lo = if magnitude a >= magnitude b then (a, b) else (b, a) in
    let gap = magnitude hi - magnitude lo in
    if gap > max_align_bits prec then begin
      (* lo only contributes a sticky bit *)
      let sticky_exp = magnitude hi - max_align_bits prec in
      let m = N.add_shifted hi.mant (hi.exp - sticky_exp) N.one in
      round_raw ~prec ~sticky:false hi.neg m sticky_exp
    end
    else if hi.exp - lo.exp >= 1 && N.bit_length hi.mant >= prec then begin
      let g = hi.exp - lo.exp in
      let sticky = N.any_bit_below lo.mant (g - 1) in
      let m = N.add_shifted hi.mant 1 (N.shift_right lo.mant (g - 1)) in
      round_raw ~prec ~sticky hi.neg m (lo.exp + g - 1)
    end
    else begin
      let m =
        if a.exp >= b.exp then N.add_shifted a.mant (a.exp - b.exp) b.mant
        else N.add_shifted b.mant (b.exp - a.exp) a.mant
      in
      round_raw ~prec ~sticky:false a.neg m (min a.exp b.exp)
    end
  end
  else begin
    (* opposite signs: magnitude subtraction *)
    let c = compare_mag a b in
    if c = 0 then Zero false
    else begin
      let hi, lo = if c > 0 then (a, b) else (b, a) in
      let gap = magnitude hi - magnitude lo in
      if gap > max_align_bits prec then begin
        let sticky_exp = magnitude hi - max_align_bits prec in
        let m = N.sub_shifted hi.mant (hi.exp - sticky_exp) N.one in
        round_raw ~prec ~sticky:false hi.neg m sticky_exp
      end
      else begin
        let fused =
          let g = hi.exp - lo.exp in
          if g < 1 then None
          else begin
            let sticky = N.any_bit_below lo.mant (g - 1) in
            let t = N.shift_right lo.mant (g - 1) in
            let t = if sticky then N.add t N.one else t in
            let m1 = N.sub_shifted hi.mant 1 t in
            (* the guard-bit fold is only exact while the top keeps
               more than [prec] bits; cancellation past that must see
               the full-width difference *)
            if N.bit_length m1 > prec then
              Some (round_raw ~prec ~sticky hi.neg m1 (lo.exp + g - 1))
            else None
          end
        in
        match fused with
        | Some r -> r
        | None ->
            let e = min hi.exp lo.exp in
            let m =
              if hi.exp >= lo.exp then
                N.sub_shifted hi.mant (hi.exp - e) lo.mant
              else
                N.sub
                  (N.shift_left hi.mant (hi.exp - e))
                  (N.shift_left lo.mant (lo.exp - e))
            in
            round_raw ~prec ~sticky:false hi.neg m e
      end
    end
  end

let add ~prec x y =
  match (x, y) with
  | Nan, _ | _, Nan -> Nan
  | Inf a, Inf b -> if a = b then Inf a else Nan
  | Inf a, _ | _, Inf a -> Inf a
  | Zero a, Zero b -> if a && b then Zero true else Zero false
  | Zero _, (Fin _ as f) | (Fin _ as f), Zero _ -> round ~prec f
  | Fin a, Fin b -> add_fin ~prec a b

let sub ~prec x y = add ~prec x (neg y)

let mul ~prec x y =
  match (x, y) with
  | Nan, _ | _, Nan -> Nan
  | Inf a, Inf b -> Inf (a <> b)
  | Inf a, Zero _ | Zero _, Inf a -> ignore a; Nan
  | Inf a, Fin f | Fin f, Inf a -> Inf (a <> f.neg)
  | Zero a, Zero b -> Zero (a <> b)
  | Zero a, Fin f | Fin f, Zero a -> Zero (a <> f.neg)
  | Fin a, Fin b -> begin
      (* Canonical mantissas are odd, so the short product can usually
         round without computing the low half; identical result either
         way (see Natural.mul_round). *)
      match N.mul_round ~prec a.mant b.mant with
      | Some (mant, shift) ->
          make ~neg:(a.neg <> b.neg) ~mant ~exp:(a.exp + b.exp + shift)
      | None ->
          round_raw ~prec ~sticky:false (a.neg <> b.neg) (N.mul a.mant b.mant)
            (a.exp + b.exp)
    end

let div ~prec x y =
  match (x, y) with
  | Nan, _ | _, Nan -> Nan
  | Inf _, Inf _ -> Nan
  | Inf a, Zero b -> Inf (a <> b)
  | Inf a, Fin f -> Inf (a <> f.neg)
  | Zero _, Inf _ -> Zero (is_negative x <> is_negative y)
  | Zero a, Fin f -> Zero (a <> f.neg)
  | Fin f, Inf b -> Zero (f.neg <> b)
  | Zero a, Zero b -> ignore (a, b); Nan
  | Fin f, Zero b -> Inf (f.neg <> b)
  | Fin a, Fin b ->
      let la = N.bit_length a.mant and lb = N.bit_length b.mant in
      let s = max 0 (prec + 2 + lb - la) in
      let q, r = N.divmod (N.shift_left a.mant s) b.mant in
      round_raw ~prec ~sticky:(not (N.is_zero r)) (a.neg <> b.neg) q
        (a.exp - b.exp - s)

let sqrt ~prec x =
  match x with
  | Nan -> Nan
  | Zero n -> Zero n
  | Inf false -> Inf false
  | Inf true -> Nan
  | Fin f when f.neg -> Nan
  | Fin f ->
      let par = ((f.exp mod 2) + 2) mod 2 in
      let h = (f.exp - par) / 2 in
      let m = N.shift_left f.mant par in
      (* scale by 4^k so the integer root carries prec+2 bits *)
      let bl = N.bit_length m in
      let k = max 0 (((2 * (prec + 2)) - bl + 1) / 2) in
      let m = N.shift_left m (2 * k) in
      let s = N.isqrt m in
      let sticky = not (N.equal (N.mul s s) m) in
      round_raw ~prec ~sticky false s (h - k)

let cmp x y =
  match (x, y) with
  | Nan, _ | _, Nan -> None
  | Zero _, Zero _ -> Some 0
  | Inf a, Inf b -> Some (Stdlib.compare b a)
  | Inf a, _ -> Some (if a then -1 else 1)
  | _, Inf b -> Some (if b then 1 else -1)
  | Zero _, Fin f -> Some (if f.neg then 1 else -1)
  | Fin f, Zero _ -> Some (if f.neg then -1 else 1)
  | Fin a, Fin b ->
      if a.neg && not b.neg then Some (-1)
      else if b.neg && not a.neg then Some 1
      else begin
        let c = compare_mag a b in
        Some (if a.neg then -c else c)
      end

let equal x y = match cmp x y with Some 0 -> true | Some _ | None -> false

let hash = function
  | Nan -> 0x6e616e
  | Inf n -> if n then 0x2d696e66 else 0x696e66
  | Zero _ -> 0 (* both zeros compare equal *)
  | Fin f ->
      let h = Hashtbl.hash (f.neg, f.exp) in
      (h * 1000003) + Hashtbl.hash f.mant
let lt x y = match cmp x y with Some c -> c < 0 | None -> false
let le x y = match cmp x y with Some c -> c <= 0 | None -> false
let gt x y = match cmp x y with Some c -> c > 0 | None -> false
let ge x y = match cmp x y with Some c -> c >= 0 | None -> false
let min2 x y = if is_nan x || is_nan y then Nan else if le x y then x else y
let max2 x y = if is_nan x || is_nan y then Nan else if ge x y then x else y

let of_float f =
  if Float.is_nan f then Nan
  else if f = Float.infinity then Inf false
  else if f = Float.neg_infinity then Inf true
  else if f = 0.0 then Zero (1.0 /. f < 0.0)
  else begin
    let bits = Int64.bits_of_float f in
    let negb = Int64.compare bits 0L < 0 in
    let biased = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 52) 0x7FFL) in
    let frac = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
    if biased = 0 then
      (* subnormal: frac * 2^-1074 *)
      make ~neg:negb ~mant:(N.of_int frac) ~exp:(-1074)
    else
      make ~neg:negb
        ~mant:(N.of_int (frac lor (1 lsl 52)))
        ~exp:(biased - 1023 - 52)
  end

let to_float t =
  match t with
  | Nan -> Float.nan
  | Inf false -> Float.infinity
  | Inf true -> Float.neg_infinity
  | Zero false -> 0.0
  | Zero true -> -0.0
  | Fin f ->
      (* 53 bits in the normal range, fewer in the subnormal range; below
         2^-1075 the value rounds to zero, from 2^1024 up to infinity *)
      let mag = magnitude f in
      let v =
        if mag < -1074 then 0.0
        else N.to_float_scaled f.mant (min 53 (mag + 1074)) f.exp
      in
      if f.neg then -.v else v

let to_bigint t =
  match t with
  | Zero _ -> Some Bigint.zero
  | Fin f when f.exp >= 0 ->
      Some (Bigint.make ~neg:f.neg (N.shift_left f.mant f.exp))
  | Fin _ | Nan | Inf _ -> None

let is_integer t =
  match t with
  | Zero _ -> true
  | Fin f -> f.exp >= 0
  | Nan | Inf _ -> false

(* Truncate toward zero. *)
let trunc t =
  match t with
  | Nan | Inf _ | Zero _ -> t
  | Fin f ->
      if f.exp >= 0 then t
      else begin
        let m = N.shift_right f.mant (-f.exp) in
        if N.is_zero m then Zero f.neg else make ~neg:f.neg ~mant:m ~exp:0
      end

let floor t =
  match t with
  | Nan | Inf _ | Zero _ -> t
  | Fin f ->
      let tr = trunc t in
      if (not f.neg) || equal tr t then tr
      else add ~prec:exact tr minus_one

let ceil t =
  match t with
  | Nan | Inf _ | Zero _ -> t
  | Fin f ->
      let tr = trunc t in
      if f.neg || equal tr t then tr else add ~prec:exact tr one

let round_to_int t =
  match t with
  | Nan | Inf _ | Zero _ -> t
  | Fin f ->
      (* ties away from zero, like C round() *)
      let shifted = add ~prec:exact (abs t) half in
      let fl = floor shifted in
      if f.neg then neg fl else fl

let of_decimal_string ~prec s =
  let s = String.trim s in
  let lower = String.lowercase_ascii s in
  match lower with
  | "nan" | "-nan" | "+nan" -> Nan
  | "inf" | "+inf" | "infinity" | "+infinity" -> Inf false
  | "-inf" | "-infinity" -> Inf true
  | _ ->
      let neg', s =
        if String.length s > 0 && s.[0] = '-' then
          (true, String.sub s 1 (String.length s - 1))
        else if String.length s > 0 && s.[0] = '+' then
          (false, String.sub s 1 (String.length s - 1))
        else (false, s)
      in
      let mantissa_part, exp10 =
        match String.index_opt (String.lowercase_ascii s) 'e' with
        | Some i ->
            ( String.sub s 0 i,
              int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
        | None -> (s, 0)
      in
      let int_part, frac_part =
        match String.index_opt mantissa_part '.' with
        | Some i ->
            ( String.sub mantissa_part 0 i,
              String.sub mantissa_part (i + 1)
                (String.length mantissa_part - i - 1) )
        | None -> (mantissa_part, "")
      in
      let digits = int_part ^ frac_part in
      let digits = if digits = "" then "0" else digits in
      let e10 = exp10 - String.length frac_part in
      let m = N.of_string digits in
      if N.is_zero m then Zero neg'
      else begin
        let v = make ~neg:neg' ~mant:m ~exp:0 in
        if e10 >= 0 then
          let p10 = of_bigint (Bigint.of_natural (N.pow_int (N.of_int 10) e10)) in
          mul ~prec v p10
        else
          let p10 =
            of_bigint (Bigint.of_natural (N.pow_int (N.of_int 10) (-e10)))
          in
          div ~prec v p10
      end

let to_decimal_string ?(digits = 17) t =
  match t with
  | Nan -> "nan"
  | Inf false -> "inf"
  | Inf true -> "-inf"
  | Zero false -> "0"
  | Zero true -> "-0"
  | Fin f ->
      (* Compute d = round(mant * 2^exp * 10^k) with enough decimal digits,
         then place the point. *)
      let mag = magnitude f in
      (* decimal exponent of the leading digit, approximately *)
      let dec_mag = Stdlib.int_of_float (Float.of_int mag *. 0.30103) in
      let k = digits - dec_mag in
      let scaled =
        if k >= 0 then begin
          let num = N.mul f.mant (N.pow_int (N.of_int 10) k) in
          if f.exp >= 0 then N.shift_left num f.exp
          else begin
            let den = N.shift_left N.one (-f.exp) in
            let q, r = N.divmod num den in
            (* round half up; exactness does not matter for display *)
            if N.compare (N.shift_left r 1) den >= 0 then N.add q N.one else q
          end
        end
        else begin
          let den = N.pow_int (N.of_int 10) (-k) in
          let num =
            if f.exp >= 0 then N.shift_left f.mant f.exp else f.mant
          in
          let den =
            if f.exp >= 0 then den else N.mul den (N.shift_left N.one (-f.exp))
          in
          let q, r = N.divmod num den in
          if N.compare (N.shift_left r 1) den >= 0 then N.add q N.one else q
        end
      in
      let ds = N.to_string scaled in
      let point = String.length ds - k in
      let sign = if f.neg then "-" else "" in
      let strip_zeros s =
        let n = ref (String.length s) in
        while !n > 1 && s.[!n - 1] = '0' do
          decr n
        done;
        String.sub s 0 !n
      in
      if point <= 0 then
        sign ^ "0." ^ String.make (-point) '0' ^ strip_zeros ds
      else if point >= String.length ds then
        if point - String.length ds > 6 then
          (* large integers: exponent form *)
          let mant_str = strip_zeros ds in
          let m2 =
            if String.length mant_str = 1 then mant_str
            else
              String.sub mant_str 0 1 ^ "."
              ^ String.sub mant_str 1 (String.length mant_str - 1)
          in
          sign ^ m2 ^ "e" ^ string_of_int (point - 1)
        else sign ^ ds ^ String.make (point - String.length ds) '0'
      else begin
        let raw = String.sub ds point (String.length ds - point) in
        let n = ref (String.length raw) in
        while !n > 0 && raw.[!n - 1] = '0' do
          decr n
        done;
        if !n = 0 then sign ^ String.sub ds 0 point
        else sign ^ String.sub ds 0 point ^ "." ^ String.sub raw 0 !n
      end

let pp fmt t = Format.pp_print_string fmt (to_decimal_string t)
