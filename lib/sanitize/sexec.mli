(** The NSan-style sanitizer: the double-double ({!Twofloat}) shadow
    domain over the shared executor {!Vex.Shadow_exec}, which owns the
    statement loop, frames, shadow tables, deadline tick and the
    shadow-free operator cases.

    Checks fire at the observable points of Courbet's NSan: memory
    stores of floats, float-to-integer casts, float comparisons whose
    verdict flips against the shadow (observed at branches), and
    program outputs. Outputs are bit-identical to {!Vex.Machine.run}'s,
    which the fuzz transparency oracle enforces. *)

type check_kind =
  | Check_store  (** a float stored to memory had drifted *)
  | Check_cast  (** a float->int cast disagreed with the shadow *)
  | Check_cmp  (** a float comparison flipped at a branch *)
  | Check_output  (** a program output carried error *)

val check_kind_name : check_kind -> string

(** Per-program-point aggregate of one check. *)
type finding = {
  f_id : int;  (** the statement id (pc) *)
  f_loc : Vex.Ir.loc;
  f_kind : check_kind;
  mutable f_total : int;  (** times the check executed *)
  mutable f_hits : int;  (** fired: error above threshold, or a flip *)
  mutable f_bits_sum : float;
  mutable f_bits_max : float;
  mutable f_uncertain : int;
      (** flips whose margin was below dd resolution — a higher-precision
          engine may legitimately disagree, so the engine-consistency
          oracle skips them *)
  mutable f_nonfinite_hits : int;
      (** instances where the client value itself was nan or infinite:
          kept separate so the engine-consistency oracle can tell a
          verdict about an overflow/invalid from a measured-error one *)
}

exception Fatal_finding of finding
(** Raised mid-run in [~fatal:true] mode by the first firing check. *)

type stats = {
  mutable blocks_run : int;
  mutable stmts_run : int;  (** raw statements, IMarks included *)
  mutable stmts_executed : int;
      (** pre-decoded statements dispatched (IMarks elided at compile
          time) *)
  mutable stmts_instrumented : int;  (** statements taking the shadow path *)
  mutable shadow_ops : int;  (** dd-shadowed floating-point operations *)
  mutable checks_run : int;
}

type result = {
  sx_findings : (int, finding) Hashtbl.t;
  sx_outputs : Vex.Machine.output list;
  sx_stats : stats;
}

val run :
  ?mem_size:int ->
  ?max_steps:int ->
  ?inputs:float array ->
  ?tick:(unit -> unit) ->
  ?fatal:bool ->
  Core.Config.t ->
  Vex.Ir.prog ->
  result
(** Run the program under the sanitizer. Only [error_threshold] is read
    from the configuration (the other knobs belong to the full engine).
    [fatal] makes the first firing check raise {!Fatal_finding} instead
    of resuming; [tick] is the batch drivers' deadline hook, called by
    the executor at block granularity at most once per 1024 executed raw
    statements, as in {!Core.Exec.run}. Client faults raise
    {!Vex.Machine.Client_error}. *)

val outputs : result -> Vex.Machine.output list
(** Everything the program printed, oldest first. *)

val findings : result -> finding list
(** All findings, most bits of error first (ties by statement id). *)
