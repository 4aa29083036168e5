(** The uninstrumented VEX machine: byte-addressed memory and thread
    state, per-superblock typed temporaries, indirect jumps.

    This is the "native execution" that overhead figures compare the
    instrumented interpreter ({!Core.Exec}) against, playing the role of
    running the client binary outside Valgrind. *)

type output = {
  stmt_id : int;  (** the Out statement's program point *)
  loc : Ir.loc;  (** source location from the latest IMark *)
  kind : Ir.out_kind;
  value : Value.t;
}

type state

exception Client_error of string
(** Raised for out-of-bounds memory accesses, jumps outside the program,
    or an exceeded step budget. *)

val default_mem_size : int
val default_thread_size : int

val create :
  ?mem_size:int -> ?max_steps:int -> ?inputs:float array -> Ir.prog -> state
(** Fresh machine state: zeroed memory and thread state. [inputs] backs
    the [__arg] builtin. *)

val run :
  ?mem_size:int -> ?max_steps:int -> ?inputs:float array -> Ir.prog -> state
(** Run the program from its entry block until it halts. *)

val drive : ?max_steps:int -> Ir.prog -> run_block:(int -> int) -> int
(** The superblock stepping loop shared by every execution engine: start
    at the program's entry block, repeatedly call [run_block] with the
    current block index and follow the index it returns, halt at -1.
    Raises [Client_error "jump out of program: N"] on an out-of-range
    index and [Client_error "step budget exceeded"] past [max_steps].
    Returns the number of superblocks run. Deadlines are not checked
    here: the shadow executor ({!Shadow_exec}) ticks itself inside
    [run_block], once per 1024 executed raw statements. *)

val run_block : state -> int -> int
(** Execute one superblock; returns the next block index, -1 to halt. *)

val outputs : state -> output list
(** Everything the program printed, oldest first. *)

val output_floats : state -> float list
(** Just the floating-point outputs. *)

val init_value : Ir.ty -> Value.t
(** The zero value of each VEX type (used to initialize temporaries). *)

val load : state -> Ir.ty -> int -> Value.t
val store : state -> int -> Value.t -> unit

val nth_input : float array -> float -> float
(** The [__arg k] builtin's semantics, shared by every engine: wrap the
    (truncated) index into the input vector; an empty vector reads 0.0. *)

val read_input : state -> float -> float
