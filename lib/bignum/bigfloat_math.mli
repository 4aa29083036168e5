(** Transcendental functions on {!Bigfloat} values.

    Every function takes a target precision [prec]. [sin], [cos] and
    [tan] return the correctly rounded result (round to nearest even):
    a fixed-point series with a rigorous error bound, widened by Ziv's
    rounding test until the rounding is decided; their fallback for
    |x| >= 2^8192 is the double-precision libm value. Every other
    function is faithful to within a few ulps at that precision
    (computed internally with 32 or more guard bits). See DESIGN.md for
    the precision contract.
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

val fma : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
(** Correctly rounded [x*y + z] with a single rounding. *)

val fmod : Bigfloat.t -> Bigfloat.t -> Bigfloat.t
(** Exact C [fmod] (remainder of truncating division). *)

val copysign : Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val fdim : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
