(* fpgrind.fleet — public face of the batch-analysis engine.

   [Fleet.run] drives a list of job specs across a Domain worker pool
   with per-job deadlines and exception capture; [Fleet.bench_spec]
   builds the standard FPBench analysis job; [Fleet.Store] persists
   outcomes as JSONL (in [Json]) and renders the summary table. *)

include Engine
module Store = Store
