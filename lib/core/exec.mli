(** The instrumented VEX executor: the analogue of running the client
    binary under Valgrind with the Herbgrind tool loaded.

    This is the full engine's shadow domain over the shared executor
    {!Vex.Shadow_exec}, which owns the statement loop, frames, shadow
    tables, deadline tick and the shadow-free operator cases. A float's
    shadow carries the three shadow executions of paper section 4
    (reals, influences, expressions); this module adds the op and spot
    tables, libm wrapping, the results of recognized bit tricks, and
    compensation detection. Concrete trace nodes are materialized only
    when the compiled program can reach a trace consumer. Use
    {!Analysis.analyze} unless you need the raw tables. *)

(** Per-operation (pc) aggregate: location, running anti-unification of
    its concrete traces, and error statistics. *)
type op_info = {
  o_id : int;  (** the statement id (pc) *)
  o_loc : Vex.Ir.loc;
  o_name : string;  (** operator, e.g. "+", "sqrt", "exp" *)
  o_agg : Antiunify.agg;
  mutable o_count : int;
  mutable o_local_err_sum : float;
  mutable o_local_err_max : float;
  mutable o_out_err_sum : float;
  mutable o_out_err_max : float;
}

type spot_kind =
  | Spot_output  (** a program output *)
  | Spot_branch  (** a conditional guarded by a float comparison *)
  | Spot_convert  (** a float-to-integer conversion *)

(** Per-spot record: instance counts, divergence counts, error statistics
    and the influence set of candidate root causes. *)
type spot_info = {
  s_id : int;
  s_loc : Vex.Ir.loc;
  s_kind : spot_kind;
  mutable s_total : int;
  mutable s_incorrect : int;  (** for branches and conversions *)
  mutable s_err_sum : float;  (** for outputs *)
  mutable s_err_max : float;
  mutable s_infl : Shadow.IntSet.t;
}

type stats = {
  mutable blocks_run : int;
  mutable stmts_run : int;  (** raw statements, IMarks included *)
  mutable stmts_executed : int;
      (** pre-decoded statements dispatched (IMarks are elided at
          compile time, so this is the real dispatch count) *)
  mutable stmts_instrumented : int;  (** statements taking the full path *)
  mutable fp_ops : int;  (** shadowed floating-point operations *)
  mutable compensations : int;  (** compensating ops detected (5.4) *)
}

type result = {
  r_ops : (int, op_info) Hashtbl.t;
  r_spots : (int, spot_info) Hashtbl.t;
  r_outputs : Vex.Machine.output list;
  r_stats : stats;
}

val run :
  ?mem_size:int ->
  ?max_steps:int ->
  ?inputs:float array ->
  ?restrict:(int -> bool) ->
  ?tick:(unit -> unit) ->
  Config.t ->
  Vex.Ir.prog ->
  result
(** Run the program under full instrumentation, following the client's
    control flow (divergences are recorded as spots, paper 4.2).

    [restrict] (the tiered engine's pass 2) limits instrumentation to
    the statement ids it accepts: everything else runs machine-only with
    its shadows cleared, creating no spot or op entries. For the
    restricted run to report identically to an unrestricted one at the
    accepted spots, the accepted set must be closed under backward data
    dependencies ({!Vex.Slice}).

    Client faults (out-of-bounds memory, a jump out of the program, an
    exceeded [max_steps]) raise {!Vex.Machine.Client_error}.

    [tick] is the deadline hook: the executor calls it at block
    granularity, at most once per 1024 executed raw statements (and
    immediately on the first block, so an already-expired budget gets no
    free work); batch drivers enforce wall-clock deadlines by raising
    from the callback (the exception propagates out of [run]
    untouched). *)
