(** Arbitrary-precision natural numbers.

    Values are immutable. The representation uses base-[2^31] limbs stored
    little-endian in an [int array] with no leading zero limbs, so every
    mathematical natural has exactly one representation. All operations are
    exact. This module is the foundation of the {!Bigfloat} shadow
    arithmetic that replaces MPFR in this reproduction. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument] on
    negative input. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a non-negative OCaml [int]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t
val mul_int : t -> int -> t
(** [mul_int a k] multiplies by a small non-negative int. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]. Raises
    [Division_by_zero] when [b] is zero. *)

val divmod_int : t -> int -> t * int
(** [divmod_int a k] divides by a small positive int. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val add_shifted : t -> int -> t -> t
(** [add_shifted a s b] is [a*2^s + b] ([s >= 0]), fusing the alignment
    shift of floating-point addition into the add: one pass, one
    allocation. *)

val sub_shifted : t -> int -> t -> t
(** [sub_shifted a s b] is [a*2^s - b]; requires [a*2^s >= b] and
    [s >= 0], raising [Invalid_argument] otherwise. *)

val bit_length : t -> int
(** [bit_length n] is the position of the highest set bit plus one; 0 for
    zero. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] (little-endian) of [n]. *)

val any_bit_below : t -> int -> bool
(** [any_bit_below n i] is true when some bit strictly below position [i]
    is set. O(1) on odd values. *)

val mul_shift_right : t -> t -> int -> t
(** [mul_shift_right a b s] is [floor (a*b / 2^s)] or one less, by a
    short product that skips the partial products below the kept bits:
    the multiply of a fixed-point series that keeps only the top of each
    product. *)

val mul_round : prec:int -> t -> t -> (t * int) option
(** [mul_round ~prec a b] computes [a*b] rounded to nearest at [prec]
    significant bits via a short product, returning [Some (mant, shift)]
    with [round(a*b) = mant * 2^shift]. Requires both operands odd
    (ties are then impossible and the sticky bit is always set, exactly
    the contract of {!Bigfloat}'s canonical mantissas); returns [None]
    when the operands are small, even, or the short product cannot
    prove the rounding — callers fall back to the exact product. The
    returned rounding is always identical to rounding the exact
    product. *)

val is_even : t -> bool

val trailing_zeros : t -> int
(** Number of low zero bits; raises [Invalid_argument] on zero. *)

val isqrt : t -> t
(** [isqrt n] is the integer square root, the largest [s] with [s*s <= n]. *)

val pow_int : t -> int -> t
(** [pow_int b e] is [b] raised to the non-negative power [e]. *)

val of_string : string -> t
(** Parse a decimal string of digits. *)

val to_string : t -> string
(** Render in decimal. *)

val to_float : t -> float
(** Nearest [float] (round to nearest even); may be [infinity]. *)

val to_float_scaled : t -> int -> int -> float
(** [to_float_scaled a n e] is [a 2^e] rounded to nearest even at
    [0 <= n <= 53] significant bits (n below 53 for subnormals); may be
    [infinity]. O(1) on odd [a]. *)

val pp : Format.formatter -> t -> unit
