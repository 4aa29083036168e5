(** Transcendental functions on {!Bigfloat} values.

    Every function takes a target precision [prec] and, except
    [hypot], returns the correctly rounded result (round to nearest
    even): [pi], [ln2], [exp], [expm1], [exp2], [log], [log1p], [log2],
    [log10], [sin], [cos], [tan], [asin], [acos], [atan], [atan2],
    [sinh], [cosh], [tanh], [pow], [cbrt], [fma], [fdim], and the exact
    [fmod] and [copysign]. Each transcendental evaluates a fixed-point
    series over {!Natural} with a derived error bound, and one Ziv loop
    widens the evaluation until every value within the bound rounds the
    same way, as MPFR does; [cbrt] rounds an integer cube root with a
    sticky bit instead. Functions built from a kernel ([expm1], [log1p],
    [sinh], [tanh], [asin], [atan2], [pow], ...) carry the kernel's
    interval through their own arithmetic rather than composing two
    rounded calls. Exact cases that a Ziv loop cannot decide (powers of
    two in [log2] and [exp2], powers of ten in [log10], exact powers in
    [pow]) are returned directly. The fallback of [sin], [cos] and [tan]
    for |x| >= 2^8192 is the double-precision libm value. [hypot] is
    faithful: [x^2 + y^2] rounded at [prec + 32] bits, then a correctly
    rounded square root. See DESIGN.md for the precision contract.
    Together with {!Bigfloat} this covers the libm surface that Herbgrind
    wraps (paper section 5.4): the shadow real execution calls these to get
    the exact result of client math-library calls.

    Special values follow C99/IEEE-754 conventions (e.g. [log 0 = -inf],
    [atan2 0 0 = 0], [pow 0 0 = 1]). *)

val pi : prec:int -> Bigfloat.t
val ln2 : prec:int -> Bigfloat.t
val exp : prec:int -> Bigfloat.t -> Bigfloat.t
val expm1 : prec:int -> Bigfloat.t -> Bigfloat.t
val exp2 : prec:int -> Bigfloat.t -> Bigfloat.t
val log : prec:int -> Bigfloat.t -> Bigfloat.t
val log1p : prec:int -> Bigfloat.t -> Bigfloat.t
val log2 : prec:int -> Bigfloat.t -> Bigfloat.t
val log10 : prec:int -> Bigfloat.t -> Bigfloat.t
val sin : prec:int -> Bigfloat.t -> Bigfloat.t
val cos : prec:int -> Bigfloat.t -> Bigfloat.t
val tan : prec:int -> Bigfloat.t -> Bigfloat.t
val asin : prec:int -> Bigfloat.t -> Bigfloat.t
val acos : prec:int -> Bigfloat.t -> Bigfloat.t
val atan : prec:int -> Bigfloat.t -> Bigfloat.t
val atan2 : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val sinh : prec:int -> Bigfloat.t -> Bigfloat.t
val cosh : prec:int -> Bigfloat.t -> Bigfloat.t
val tanh : prec:int -> Bigfloat.t -> Bigfloat.t
val pow : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val cbrt : prec:int -> Bigfloat.t -> Bigfloat.t
val hypot : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
(** Faithful, not correctly rounded (see above). *)

val fma : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
(** Correctly rounded [x*y + z] with a single rounding. *)

val fmod : Bigfloat.t -> Bigfloat.t -> Bigfloat.t
(** Exact C [fmod] (remainder of truncating division). *)

val copysign : Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val fdim : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
