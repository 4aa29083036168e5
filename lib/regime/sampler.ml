(* The regime point-context sampler. A context holds named input
   assignments drawn from a benchmark's sampling ranges (the suite's
   stand-in for FPBench :pre preconditions), keyed purely by
   (bench, seed, n): it rides the suite's xorshift64* stream through
   [Fpcore.Suite.inputs_for], so the same seed always yields
   byte-identical points — the property the campaign checkpoints, the
   soundiness oracle, and the regime tests all lean on. Its spec is the
   benchmark's body: the context holds the spec's exact value, once per
   point, and scores each expression against it once
   ([Rewrite.Improve.errors]).

   Two contexts matter everywhere in this library: the *search* context
   (seed s) that regimes are inferred on, and the *resample* context
   (seed [Rewrite.Soundness.resample_seed] s) that validates them. They
   come from disjoint streams by construction, so a branch structure
   that merely memorizes its search points is caught, not shipped. *)

module Suite = Fpcore.Suite

type t = Rewrite.Improve.context

(* disjoint-stream seed for the validation context (re-exported so
   callers need only one module) *)
let resample_seed = Rewrite.Soundness.resample_seed

let context = Rewrite.Soundness.samples_of_bench

(* Ad-hoc expressions (CLI `improve` on raw FPCore source) have no suite
   entry; a synthetic bench built from per-variable ranges reuses the
   identical sampling discipline. Positive ranges sample log-uniformly,
   matching the suite's convention for scale-spanning inputs. *)
let bench_of_ranges ~(name : string) ~(src : string)
    (ranges : (string * float * float) list) : Suite.bench =
  {
    Suite.name;
    group = `Straight;
    src;
    ranges =
      List.map
        (fun (v, lo, hi) ->
          (v, lo, hi, if lo > 0.0 && hi > 0.0 then Suite.Log else Suite.Linear))
        ranges;
  }

(* Canonical rendering of a context, used by determinism tests and
   anywhere a context must be compared byte-for-byte. %h is exact. *)
let fingerprint (ctx : t) : string =
  String.concat ";"
    (List.map
       (fun pt ->
         String.concat ","
           (List.map (fun (x, v) -> Printf.sprintf "%s=%h" x v) pt))
       (Array.to_list ctx.Rewrite.Improve.points))
