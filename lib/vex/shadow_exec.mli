(** The shadow executor shared by every instrumented engine.

    It runs a program's pre-decoded superblocks ({!Compile}) with client
    semantics from {!Eval}, keeps a shadow slot beside every temporary,
    thread-state slot and memory slot, and hands each float operation
    and each observation point to a shadow domain. The executor owns the
    scratch-memory pool, the strided deadline tick, per-block frames,
    the shadow table, the shadow-free operator cases (bit
    reinterpretation, vector lanes, [I64HLtoV128], the sign- and
    abs-mask bit tricks, [Not1], integer ops) and the statement loop:
    [PFast] and [POff] statements run machine-only and clear the shadows
    they overwrite, [PFull] statements run through the domain. Outputs
    are bit-identical to {!Machine.run}'s; client faults raise
    {!Machine.Client_error}.

    Shadow table aliasing rule: an entry covers [addr, addr+size) from a
    4-aligned start (F32/F64 values and V128 lanes); any write that
    overlaps it kills it, and a load hits only an entry with exactly its
    address and size. Unaligned addresses never hold a shadow. *)

(** What a temporary or storage slot holds: nothing, one float's shadow
    (possibly riding in an integer after a reinterpretation), the shadow
    of a float comparison, or 2 (F64) or 4 (F32) SIMD lanes. *)
type ('v, 'b) slot =
  | SNone
  | SVal of 'v
  | SBool of 'b sbool
  | SVec of ('v, 'b) slot array

(** A comparison's client verdict, its shadow verdict, and what the
    domain keeps about it. *)
and 'b sbool = { client_b : bool; shadow_b : bool; detail : 'b }

type arith = Add | Sub | Mul | Div | Min | Max
type cmp = Eq | Ne | Lt | Le

type site = Compile.cstmt
(** The statement being executed: its id ([cs_id]) and location
    ([cs_loc]) name the program point a hook records against. *)

(** A shadow domain: the shadow value of a float ([v]), what it keeps
    about a comparison ([b]), and one run's recording state ([t]).
    Arguments arrive as the client float plus its slot; a domain shadows
    an unshadowed ([SNone]) argument as it sees fit. *)
module type DOMAIN = sig
  type v
  type b
  type t

  val arith :
    t -> site -> arith -> single:bool -> client:float ->
    float -> (v, b) slot -> float -> (v, b) slot -> v
  (** A scalar or per-lane binary operation; [client] is its result. *)

  val sqrt : t -> site -> single:bool -> client:float -> float -> (v, b) slot -> v

  val libm :
    t -> site -> string -> client:float -> float array -> (v, b) slot array -> v
  (** A wrapped libm call (a [Dirty] statement other than [__arg]). *)

  val neg : t -> client:float -> v -> v
  (** Negation, from [NegF*] or the XOR sign-mask trick. *)

  val abs : t -> client:float -> v -> v
  (** Absolute value, from [AbsF*] or the AND abs-mask trick. *)

  val precision : single:bool -> v -> v
  (** A conversion to the binary32 ([single]) or binary64 grid. *)

  val cmp :
    t -> cmp -> client:bool -> float -> (v, b) slot -> float -> (v, b) slot ->
    (v, b) slot
  (** A float comparison: an [SBool], or [SNone] to track nothing. *)

  val of_int : t -> single:bool -> client:float -> int64 -> v
  (** An integer-to-float conversion: exact provenance. *)

  val to_int : t -> site -> rn:bool -> v -> int64 -> unit
  (** A float-to-integer conversion of a shadowed float, truncating or
      rounding to nearest ([rn]); the integer carries no shadow. *)

  val input : t -> float -> v
  (** The shadow of a harness input ([__arg]). *)

  val branch : t -> site -> b sbool -> unit
  (** Observation: a side exit or [ITE] guarded by a float comparison. *)

  val store : t -> site -> Value.t -> (v, b) slot -> unit
  (** Observation: a value about to be stored to client memory. *)

  val output : t -> site -> Value.t -> (v, b) slot -> unit
  (** Observation: an [Out] statement (program outputs and spot marks). *)
end

type counters = {
  mutable blocks_run : int;
  mutable stmts_run : int;  (** raw statements, IMarks included *)
  mutable stmts_executed : int;  (** pre-decoded statements dispatched *)
  mutable stmts_instrumented : int;  (** statements on the [PFull] path *)
}

val compile :
  type_inference:bool -> ?restrict:(int -> bool) -> Ir.prog -> Compile.t
(** {!Compile.get} with [restrict] given as a predicate on statement
    ids: statements it rejects compile to [POff]. *)

module Make (D : DOMAIN) : sig
  val run :
    ?mem_size:int ->
    ?max_steps:int ->
    ?inputs:float array ->
    ?tick:(unit -> unit) ->
    Compile.t ->
    D.t ->
    Ir.prog ->
    Machine.output list * counters
  (** Run the compiled program from its entry block, recording into the
      domain state. Returns the outputs, oldest first, and the loop's
      counters. [tick] is the deadline hook, called at block granularity
      at most once per 1024 executed raw statements and on the first
      block; an exception it raises propagates out of [run]. *)
end
