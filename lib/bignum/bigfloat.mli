(** Arbitrary-precision binary floating point with round-to-nearest-even.

    This is the reproduction's substitute for MPFR: shadow values in the
    Herbgrind analysis are [Bigfloat.t] computed at a configurable precision
    (1000 bits by default, as in the paper). A finite value is
    [(-1)^neg * mant * 2^exp] with an odd mantissa, so every representable
    number has a unique form and precision is enforced by the rounding step
    of each operation rather than by the representation.

    Basic operations ([add], [sub], [mul], [div], [sqrt]) are correctly
    rounded to the requested precision. Transcendental functions live in
    {!Bigfloat_math}, all correctly rounded by Ziv's loop but for a
    faithful [hypot] (see DESIGN.md). *)

type t =
  | Nan
  | Inf of bool  (** [Inf true] is negative infinity *)
  | Zero of bool  (** [Zero true] is negative zero *)
  | Fin of fin

and fin = private { neg : bool; mant : Natural.t; exp : int }

val nan : t
val pos_inf : t
val neg_inf : t
val zero : t
val neg_zero : t
val one : t
val minus_one : t
val two : t
val half : t

val make : neg:bool -> mant:Natural.t -> exp:int -> t
(** Build a finite value, canonicalizing (strips trailing zero bits; a zero
    mantissa yields [Zero neg]). Not rounded. *)

val is_nan : t -> bool
val is_inf : t -> bool
val is_zero : t -> bool
val is_finite : t -> bool
val is_negative : t -> bool
(** Sign bit, true for [Zero true] and [Inf true]; false for NaN. *)

val precision_of : t -> int
(** Number of significant bits of a finite value; 0 for zero; raises
    [Invalid_argument] otherwise. *)

val round : prec:int -> t -> t
(** Round to nearest even at [prec] significant bits. *)

val neg : t -> t
val abs : t -> t
val add : prec:int -> t -> t -> t
val sub : prec:int -> t -> t -> t
val mul : prec:int -> t -> t -> t
val div : prec:int -> t -> t -> t

val sqrt : prec:int -> t -> t

val mul_2exp : t -> int -> t
(** Exact scaling by a power of two. *)

val cmp : t -> t -> int option
(** Numeric comparison; [None] when either argument is NaN. Negative and
    positive zero compare equal. *)

val equal : t -> t -> bool
(** Numeric equality ([false] when either side is NaN). *)

val hash : t -> int
(** Structural hash consistent with numeric equality on canonical values
    (the two zeros hash alike). *)

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

val min2 : t -> t -> t
val max2 : t -> t -> t

val of_float : float -> t
(** Exact conversion from an IEEE double. *)

val to_float : t -> float
(** Round to the nearest IEEE double (overflow to infinity, gradual
    underflow to subnormals and zero). *)

val of_int : int -> t
val of_bigint : Bigint.t -> t

val to_bigint : t -> Bigint.t option
(** Exact conversion when the value is a finite integer. *)

val floor : t -> t
val ceil : t -> t
val trunc : t -> t
val round_to_int : t -> t
(** Round to the nearest integer, ties away from zero (C [round]). *)

val is_integer : t -> bool

val of_decimal_string : prec:int -> string -> t
(** Parse a decimal literal such as ["-12345.67e-8"], rounding to [prec]
    bits. Accepts ["inf"], ["-inf"] and ["nan"]. *)

val to_decimal_string : ?digits:int -> t -> string
(** Decimal rendering with [digits] significant digits (default 17). *)

val pp : Format.formatter -> t -> unit
