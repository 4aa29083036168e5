(* Shadow values (paper sections 4 and 5.1-5.2).

   A shadowed float carries three analyses at once: the exact real value
   (Bigfloat, standing in for MPFR), the concrete trace of the computation
   that produced it, and the influence set of high-local-error operations
   it depends on. Shadows are immutable and freely shared between copies
   in temporaries, thread state, and memory (section 6.2); OCaml's GC
   replaces the reference counting of the C implementation.

   [rounded] is [real] rounded to the nearest double, once, where the
   shadow is created: local error, output error and the compensation
   check read it instead of rounding a 1000-bit real again at each use.

   [value] is the client double computed where the shadow was created
   (trace-node semantics: passthrough rewrites such as precision moves
   keep the creating site's value). It lives directly in the shadow so
   the trace can stay unmaterialized: when the executor's reachability
   pre-pass proves no consumer can see a trace, [trace] is [None] and
   only the logical node count is kept (see {!Trace.phantom}).

   What a VEX temporary or storage slot holds is a
   [Vex.Shadow_exec.slot] over these values. *)

module IntSet = Set.Make (Int)

type t = {
  real : Bignum.Bigfloat.t;
  rounded : float;
  value : float;
  trace : Trace.node option;
  infl : IntSet.t;
  single : bool;  (* true when this value lives on the binary32 grid *)
}

(* lazily shadow a client value that has no recorded provenance; trace keys
   always hash the exact value so equivalence inference is consistent
   between leaves and computed nodes. [traces] is the executor's
   materialization verdict: when false the leaf is phantom-counted. *)
let fresh_leaf ?(single = false) ~traces (v : float) : t =
  let real = Bignum.Bigfloat.of_float v in
  let trace =
    if traces then Some (Trace.leaf ~key:(Bignum.Bigfloat.hash real) v)
    else begin
      Trace.phantom ();
      None
    end
  in
  { real; rounded = Bignum.Bigfloat.to_float real; value = v; trace;
    infl = IntSet.empty; single }

let client_value (s : t) : float = s.value

(* the materialized trace of [s]; reconstructs a value leaf in the
   (unreachable by the executors' reachability rule) case where a
   consumer meets an unmaterialized shadow *)
let trace_of (s : t) : Trace.node =
  match s.trace with Some t -> t | None -> Trace.leaf s.value
