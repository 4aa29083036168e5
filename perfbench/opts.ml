(* One run's settings, and what a run hands back to be printed. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;  (* how long the timed passes run *)
  trace : bool;  (* per-layer metrics from a traced run *)
  quick : bool;  (* minimal sizes, for the self-test *)
  root : string;  (* checkout root: BENCHMARK.json, test/data, perfbench/pins *)
  pins : string;  (* directory of the engine pins *)
  out : string;  (* directory for run artifacts: spans, the warm-start store *)
}

(* Batch set-up always runs at the pinned seeds (1 for the suites, 42 for
   fuzz and regime). Timed pass [k] of a run with seed [s] draws its
   inputs from [pass_seed s k], which never meets a pinned seed, so no
   timed pass repeats inputs its process has already seen. *)
let pass_seed (o : t) k = 1_000_000 + (1000 * o.seed) + k

(* a path in the artifact directory, which is created on first use *)
let out_file (o : t) name =
  if not (Sys.file_exists o.out) then Sys.mkdir o.out 0o755;
  Filename.concat o.out name

let spans_file (o : t) = out_file o ("spans-" ^ o.workload ^ ".jsonl")

(* (name, unit) of each metric BENCHMARK.json declares for one mode *)
let declared ~root ~trace : (string * string) list =
  let ic = open_in_bin (Filename.concat root "BENCHMARK.json") in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let key = if trace then "per_layer" else "end_to_end" in
  match Json.member key (Json.of_string src) with
  | Some (Json.Arr ms) ->
      List.map (fun m -> (Json.get_str "name" m, Json.get_str "unit" m)) ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

type result = {
  problems : string list;  (* failed checks; empty = correct *)
  attempted : int;
  failed : int;
  values : (string * float) list;  (* metric name -> value *)
  notes : string list;  (* human-readable lines: digests, pass counts *)
}
