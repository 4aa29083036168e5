(** Shadow values (paper sections 4 and 5.1-5.2).

    A shadowed float carries the three analyses at once: the exact real
    value (standing in for MPFR) with its nearest double, the concrete
    trace of the computation
    that produced it, and the influence set of high-local-error
    operations it depends on. Shadows are immutable and freely shared
    between copies in temporaries, thread state and memory (6.2).

    The trace is optional: when the executor's compile-time reachability
    pre-pass proves no consumer can ever see a trace, shadows carry
    [None] and only the logical node count is kept ({!Trace.phantom});
    [value] preserves the client double the trace node would have
    displayed. What a VEX temporary or storage slot holds is
    {!Vex.Shadow_exec.slot} over these values. *)

module IntSet : Set.S with type elt = int

type t = {
  real : Bignum.Bigfloat.t;  (** the exact value *)
  rounded : float;
      (** [real] rounded to the nearest double, once at creation: the
          error metrics read it instead of rounding [real] per use *)
  value : float;  (** the client double computed where this was created *)
  trace : Trace.node option;  (** how it was computed; [None] = phantom *)
  infl : IntSet.t;  (** stmt ids of tainting operations *)
  single : bool;  (** lives on the binary32 grid *)
}

val fresh_leaf : ?single:bool -> traces:bool -> float -> t
(** Lazily shadow a client value with no recorded provenance (paper 6.1).
    The trace key hashes the exact value, consistent with computed
    nodes. [traces] is the executor's materialization verdict: when
    false the leaf is phantom-counted and [trace] is [None]. *)

val client_value : t -> float
(** The client double this shadow accompanies. *)

val trace_of : t -> Trace.node
(** The materialized trace of a shadow, rebuilding a value leaf if it
    was never materialized (defensive: the reachability rule keeps
    consumers and unmaterialized shadows apart). *)
