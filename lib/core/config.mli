(** Analysis configuration.

    Defaults follow the paper: 1000-bit shadow precision, local-error
    threshold of 5 bits, value-equivalence depth 5, every subsystem
    enabled. The component switches exist for the section 8.2 ablations
    and figure 10 sweeps. *)

(** Which analysis engine runs the program. *)
type engine =
  | Full  (** the paper's full instrumentation (reals/influences/traces) *)
  | Sanitize  (** the NSan-style dual-precision shadow sanitizer *)
  | Tiered
      (** two-pass: sanitizer triage, then the full engine restricted to
          the backward slices of the flagged spots *)

val engine_name : engine -> string
(** ["full"] / ["sanitize"] / ["tiered"] — the canonical wire and store
    spelling. *)

val engine_of_name : string -> engine option
(** Inverse of {!engine_name}. *)

type t = {
  precision : int;  (** shadow real precision in bits (paper default 1000) *)
  error_threshold : float;
      (** bits of local error above which an operation taints its output *)
  equiv_depth : int;
      (** depth to which exact value-equivalence is tracked during
          anti-unification (paper default 5, section 6.4) *)
  max_trace_depth : int;
      (** concrete trace depth kept per value before truncation (6.3) *)
  enable_reals : bool;  (** the higher-precision shadow execution (4.2) *)
  enable_influences : bool;  (** the spots-and-influences system (4.3) *)
  enable_expressions : bool;  (** concrete/symbolic expression building (4.4) *)
  type_inference : bool;  (** superblock static type inference (5.3) *)
  classic_antiunify : bool;
      (** classical most-specific generalization: no internal-node pruning
          (the section 4.4 completeness flag) *)
  detect_compensation : bool;  (** compensating-term detection (5.4) *)
  report_all_spots : bool;  (** include error-free spots in the report *)
  engine : engine;
      (** which engine {!Analysis.analyze} and the batch drivers run;
          the sanitizer only reads [error_threshold] of the other
          knobs *)
}

val default : t
(** The paper's configuration. *)

val check_precision : int -> (int, string) result
(** The one range check on a [precision] taken from outside the program
    (CLI flags, server query parameters): [Ok p] for p in \[53, 65536\],
    otherwise [Error "precision P out of range [53, 65536]"]. *)

val fast : t
(** [default] at 128-bit precision, for tests. *)

val fingerprint : t -> string
(** Canonical string covering every field, for content-hash cache keys:
    equal fingerprints iff the configurations analyze identically. *)
