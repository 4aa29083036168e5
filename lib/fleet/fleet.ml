(* fpgrind.fleet — public face of the batch-analysis engine.

   [Fleet.run] drives a list of job specs across a Domain worker pool
   with per-job deadlines and exception capture; [Fleet.analyze] is the
   one engine dispatch that turns a program into a payload, and
   [Fleet.bench_spec] builds the standard FPBench analysis job on it;
   [Fleet.Store] persists outcomes as JSONL (in [Json]) and renders the
   summary table. *)

include Engine
module Store = Store
