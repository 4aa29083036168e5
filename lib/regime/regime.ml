(* fpgrind.regime — public face of regime inference and branched-fix
   synthesis (Herbie-style branch synthesis over the improver's beam;
   ROADMAP item 1).

   [Regime.infer] runs the whole pipeline for one benchmark: sample a
   deterministic search context ([Sampler]), keep the beam search's full
   candidate set ([Rewrite.Improve.improve_candidates]), localize
   per-subexpression error ([Localize]), find the best single-variable
   branch structure under an MDL penalty ([Search]), emit a branched
   FPCore/MiniC fix ([Emit]), and re-validate it on a disjoint resampled
   context through [Rewrite.Soundness]; every step reads its context's
   once-per-expression scores ([Rewrite.Improve.errors]), taken against
   the spec's exact value, once per point. [Regime.table]
   renders the actual-vs-predicted error table; [Regime.to_json] as JSON. *)

include Infer
module Sampler = Sampler
module Localize = Localize
module Search = Search
module Emit = Emit
