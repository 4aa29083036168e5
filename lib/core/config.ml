(* Analysis configuration. Defaults follow the paper: 1000-bit shadow
   precision, equivalence-class depth 5, and every subsystem enabled. The
   per-component switches exist for the section 8.2 ablations. *)

(* Which analysis engine runs the program: the paper's full
   instrumentation, the NSan-style dual-precision sanitizer, or the
   tiered two-pass combination (sanitizer triage, then full analysis
   restricted to the flagged slices). *)
type engine = Full | Sanitize | Tiered

let engine_name = function
  | Full -> "full"
  | Sanitize -> "sanitize"
  | Tiered -> "tiered"

let engine_of_name = function
  | "full" -> Some Full
  | "sanitize" -> Some Sanitize
  | "tiered" -> Some Tiered
  | _ -> None

type t = {
  precision : int;  (* shadow real precision in bits *)
  error_threshold : float;  (* bits of local error that taint an op *)
  equiv_depth : int;  (* exact value-equivalence tracking depth *)
  max_trace_depth : int;  (* concrete trace nodes kept per value *)
  enable_reals : bool;  (* higher-precision shadow execution *)
  enable_influences : bool;  (* spots-and-influences system *)
  enable_expressions : bool;  (* concrete/symbolic expression building *)
  type_inference : bool;  (* superblock static type inference *)
  classic_antiunify : bool;
      (* most-specific generalization (no internal-node pruning), the
         paper's section 4.4 completeness flag *)
  detect_compensation : bool;  (* compensating-term detection *)
  report_all_spots : bool;  (* include spots with no observed error *)
  engine : engine;  (* full analysis or the dual-precision sanitizer *)
}

let default =
  {
    precision = 1000;
    error_threshold = 5.0;
    equiv_depth = 5;
    max_trace_depth = 24;
    enable_reals = true;
    enable_influences = true;
    enable_expressions = true;
    type_inference = true;
    classic_antiunify = false;
    detect_compensation = true;
    report_all_spots = false;
    engine = Full;
  }

(* Shadow precisions accepted from outside the program (CLI flags,
   query parameters): below a double's 53 bits the shadow is no longer
   a higher-precision reference, and the top bounds one request's
   bignum cost. *)
let min_precision = 53
let max_precision = 65536

let check_precision p =
  if p < min_precision || p > max_precision then
    Error
      (Printf.sprintf "precision %d out of range [%d, %d]" p min_precision
         max_precision)
  else Ok p

(* a cheaper configuration for unit tests *)
let fast = { default with precision = 128 }

(* Canonical rendering of every field, in declaration order. Batch
   drivers hash this into result-cache keys, so two configs collide iff
   they analyze identically; a new field must be appended here to keep
   stale cache entries from matching. *)
let fingerprint (t : t) : string =
  Printf.sprintf
    "prec=%d;thr=%h;eqd=%d;mtd=%d;re=%b;infl=%b;expr=%b;ti=%b;ca=%b;comp=%b;all=%b;eng=%s"
    t.precision t.error_threshold t.equiv_depth t.max_trace_depth
    t.enable_reals t.enable_influences t.enable_expressions t.type_inference
    t.classic_antiunify t.detect_compensation t.report_all_spots
    (engine_name t.engine)
