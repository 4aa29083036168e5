(* fpgrind.fleet — a parallel, fault-isolated batch-analysis engine.

   Many [Analysis.analyze] jobs run across a pool of OCaml 5 domains: an
   atomic work counter feeds N workers, each job gets a wall-clock
   deadline enforced cooperatively through the analysis tick, and any
   exception a job raises (including the deadline) becomes a structured
   outcome instead of taking down the fleet.

   Determinism contract: the number of workers only changes *scheduling*.
   Each job compiles and analyzes in isolation (lib/core holds no shared
   mutable analysis state; see Trace/Normalize/Bigfloat_math), results
   land in a slot indexed by submission order, and nothing about a job's
   summary or report depends on wall time — so a `-j 4` run produces the
   same per-job output as `-j 1`. *)

exception Deadline_exceeded

type status =
  | Done
  | Failed of string  (* the raised exception, printed *)
  | Timed_out
  | Cached  (* reused from a results store, work skipped *)

type metrics = {
  m_blocks : int;  (* superblocks executed *)
  m_stmts : int;  (* statements executed (instruction count) *)
  m_stmts_executed : int;  (* pre-decoded statements dispatched *)
  m_fp_ops : int;  (* shadowed floating-point operations *)
  m_trace_nodes : int;  (* concrete trace nodes built for this job *)
  m_traces_materialized : int;  (* trace nodes actually allocated *)
  m_spots : int;  (* spots observed *)
  m_causes : int;  (* erroneous expressions above threshold *)
  m_compensations : int;
  m_err_max : float;  (* max output-spot error, bits *)
  m_escalations : int;  (* tiered: 1 if pass 2 ran, else 0 *)
  m_slice_stmts : int;  (* tiered: statements in the escalated slice *)
}

(* Regime-inference artifacts, attached to a job when the caller asked
   for branched-fix synthesis (`suite --regimes`, `POST
   /analyze?regimes=1`). The fleet carries and serializes them but never
   computes them — the regime library sits above the fleet. *)
type regime_summary = {
  rs_regimes : int;  (* 1 = no branch *)
  rs_thresholds : (string * float) list;  (* (variable, threshold) *)
  rs_error_table : string;  (* actual-vs-predicted table, rendered *)
  rs_search_points : int;  (* point evaluations the regime search spent *)
}

type payload = {
  p_metrics : metrics;
  p_summary : string;  (* one deterministic line, no timing *)
  p_report : string;  (* the full root-cause report *)
  p_regime : regime_summary option;
}

type spec = {
  sp_name : string;
  sp_group : string;
  sp_key : string;  (* content-hash cache key; "" disables caching *)
  sp_engine : string;  (* "full", "sanitize" or "tiered" *)
  sp_work : tick:(unit -> unit) -> payload;
}

type outcome = {
  o_name : string;
  o_group : string;
  o_key : string;
  o_engine : string;  (* copied from the spec *)
  o_status : status;
  o_wall_s : float;
  o_payload : payload option;  (* [Some] for [Done] and [Cached] *)
}

type progress = { pr_done : int; pr_total : int; pr_last : outcome }

(* ---------- running one job ---------- *)

(* The deadline is enforced from the executors' tick. The executors
   already stride the callback — one call per ~thousand executed
   statements, with a guaranteed call on the first block — so every call
   compares the clock directly: an already-expired deadline fires
   deterministically even on tiny jobs. A domain cannot be killed, so a
   job that never re-enters the execution loop can only be stopped by
   [Exec]'s own step budget. *)
let make_tick ~start = function
  | None -> fun () -> ()
  | Some timeout ->
      let deadline = start +. timeout in
      fun () -> if Unix.gettimeofday () > deadline then raise Deadline_exceeded

let exec_one ?timeout (sp : spec) : outcome =
  let start = Unix.gettimeofday () in
  let finish status payload =
    {
      o_name = sp.sp_name;
      o_group = sp.sp_group;
      o_key = sp.sp_key;
      o_engine = sp.sp_engine;
      o_status = status;
      o_wall_s = Unix.gettimeofday () -. start;
      o_payload = payload;
    }
  in
  match sp.sp_work ~tick:(make_tick ~start timeout) with
  | p -> finish Done (Some p)
  | exception Deadline_exceeded -> finish Timed_out None
  | exception e -> finish (Failed (Printexc.to_string e)) None

(* ---------- the pool ---------- *)

let run ?(jobs = 1) ?timeout ?cache ?on_progress (specs : spec list) :
    outcome list =
  let arr = Array.of_list specs in
  let n = Array.length arr in
  let results : outcome option array = Array.make n None in
  let next = Atomic.make 0 in
  let lock = Mutex.create () in
  let completed = ref 0 in
  let record i (o : outcome) =
    Mutex.lock lock;
    results.(i) <- Some o;
    incr completed;
    (match on_progress with
    | Some f -> (
        (* a throwing progress callback must not kill a worker *)
        try f { pr_done = !completed; pr_total = n; pr_last = o }
        with _ -> ())
    | None -> ());
    Mutex.unlock lock
  in
  let run_one i =
    let sp = arr.(i) in
    let cached =
      match cache with
      | Some lookup when sp.sp_key <> "" -> lookup sp.sp_key
      | _ -> None
    in
    match cached with
    | Some (prev : outcome) when prev.o_payload <> None ->
        record i
          {
            prev with
            o_name = sp.sp_name;
            o_group = sp.sp_group;
            o_key = sp.sp_key;
            o_engine = sp.sp_engine;
            o_status = Cached;
            o_wall_s = 0.0;
          }
    | _ -> record i (exec_one ?timeout sp)
  in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        loop ()
      end
    in
    loop ()
  in
  let helpers =
    List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join helpers;
  Array.to_list results
  |> List.map (function
       | Some o -> o
       | None -> assert false (* every index was claimed exactly once *))

(* ---------- the persistent pool (submit-one-job API) ---------- *)

(* [run] spawns domains per batch; a server cannot afford that per
   request, so [Pool] keeps the workers alive. A bounded queue feeds
   [jobs] domains; [submit] refuses (returns [None]) rather than queueing
   unboundedly when [queue] tickets are already waiting, which the caller
   turns into backpressure (HTTP 503); [drain] stops intake, finishes
   every queued and in-flight job, and joins the workers. Jobs already
   running or queued at drain time always complete — that is the graceful
   shutdown contract the server relies on. *)
module Pool = struct
  type ticket = {
    tk_spec : spec;
    tk_timeout : float option;
    mutable tk_outcome : outcome option;
  }

  type t = {
    mu : Mutex.t;
    cond : Condition.t;
    pending : ticket Queue.t;
    queue_max : int;
    mutable running : int;
    mutable stopping : bool;
    mutable workers : unit Domain.t list;
  }

  let rec worker_loop (t : t) =
    Mutex.lock t.mu;
    while Queue.is_empty t.pending && not t.stopping do
      Condition.wait t.cond t.mu
    done;
    if Queue.is_empty t.pending then Mutex.unlock t.mu (* stopping: exit *)
    else begin
      let tk = Queue.pop t.pending in
      t.running <- t.running + 1;
      Mutex.unlock t.mu;
      let o = exec_one ?timeout:tk.tk_timeout tk.tk_spec in
      Mutex.lock t.mu;
      t.running <- t.running - 1;
      tk.tk_outcome <- Some o;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      worker_loop t
    end

  let create ?(queue = 64) ~jobs () : t =
    let t =
      {
        mu = Mutex.create ();
        cond = Condition.create ();
        pending = Queue.create ();
        queue_max = max 0 queue;
        running = 0;
        stopping = false;
        workers = [];
      }
    in
    t.workers <-
      List.init (max 1 jobs) (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  (* [None] means the queue is full (or the pool is draining): the job was
     not accepted and will never run. *)
  let submit (t : t) ?timeout (sp : spec) : ticket option =
    Mutex.lock t.mu;
    if t.stopping || Queue.length t.pending >= t.queue_max then begin
      Mutex.unlock t.mu;
      None
    end
    else begin
      let tk = { tk_spec = sp; tk_timeout = timeout; tk_outcome = None } in
      Queue.push tk t.pending;
      Condition.broadcast t.cond;
      Mutex.unlock t.mu;
      Some tk
    end

  let await (t : t) (tk : ticket) : outcome =
    Mutex.lock t.mu;
    let rec wait () =
      match tk.tk_outcome with
      | Some o ->
          Mutex.unlock t.mu;
          o
      | None ->
          Condition.wait t.cond t.mu;
          wait ()
    in
    wait ()

  let queue_depth (t : t) =
    Mutex.lock t.mu;
    let n = Queue.length t.pending in
    Mutex.unlock t.mu;
    n

  let in_flight (t : t) =
    Mutex.lock t.mu;
    let n = t.running in
    Mutex.unlock t.mu;
    n

  let drain (t : t) =
    Mutex.lock t.mu;
    t.stopping <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu;
    List.iter Domain.join t.workers;
    t.workers <- []
end

(* ---------- the standard benchmark job ---------- *)

let scale_tag = function Fpcore.Suite.Linear -> "lin" | Fpcore.Suite.Log -> "log"

(* The cache key hashes everything that determines a job's result:
   benchmark source and sampling ranges, iteration count, sampling seed,
   and the full analysis configuration. Re-runs skip a job iff nothing
   it depends on changed. *)
let job_key ?(cfg = Core.Config.default) (j : Fpcore.Suite.job) : string =
  let b = j.Fpcore.Suite.job_bench in
  let ranges =
    List.map
      (fun (v, lo, hi, sc) -> Printf.sprintf "%s:%h:%h:%s" v lo hi (scale_tag sc))
      b.Fpcore.Suite.ranges
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([ b.Fpcore.Suite.src ]
          @ ranges
          @ [
              string_of_int j.Fpcore.Suite.job_iterations;
              string_of_int j.Fpcore.Suite.job_seed;
              Core.Config.fingerprint cfg;
            ])))

let group_name (b : Fpcore.Suite.bench) =
  match b.Fpcore.Suite.group with
  | `Straight -> "straight-line"
  | `Loop -> "looping"

let max_output_err (r : Core.Analysis.result) =
  List.fold_left
    (fun m (s : Core.Exec.spot_info) -> Float.max m s.Core.Exec.s_err_max)
    0.0
    (Core.Analysis.output_spots r)

(* The standard payload of an analysis job: metrics, the deterministic
   summary line, and the full report. [nodes0] and [mat0] are the
   domain's trace-node counters (logical creations and actual
   materializations) captured before the analysis ran, so
   [m_trace_nodes] / [m_traces_materialized] are the deltas this job
   created; their gap is the lazy-trace saving. *)
let payload_for ~name ~group ~nodes0 ~mat0 (r : Core.Analysis.result) :
    payload =
  let st = r.Core.Analysis.raw.Core.Exec.r_stats in
  let err_max = max_output_err r in
  let causes = List.length (Core.Analysis.erroneous_expressions r) in
  let metrics =
    {
      m_blocks = st.Core.Exec.blocks_run;
      m_stmts = st.Core.Exec.stmts_run;
      m_stmts_executed = st.Core.Exec.stmts_executed;
      m_fp_ops = st.Core.Exec.fp_ops;
      m_trace_nodes = Core.Trace.created_in_domain () - nodes0;
      m_traces_materialized = Core.Trace.materialized_in_domain () - mat0;
      m_spots = Hashtbl.length r.Core.Analysis.raw.Core.Exec.r_spots;
      m_causes = causes;
      m_compensations = st.Core.Exec.compensations;
      m_err_max = err_max;
      m_escalations = 0;
      m_slice_stmts = 0;
    }
  in
  let summary =
    Printf.sprintf "%-24s %13s  max output error %5.1f bits, %d root cause%s"
      name group err_max causes
      (if causes = 1 then "" else "s")
  in
  {
    p_metrics = metrics;
    p_summary = summary;
    p_report = Core.Analysis.report_string r;
    p_regime = None;
  }

(* The sanitizer's payload, shaped like the full engine's so the store,
   summary table and serve layer need no second schema. The fields keep
   their meaning where one exists ([m_causes] = findings that fired,
   [m_err_max] = worst output-check error) and go to zero where the
   sanitizer has no analogue (trace nodes, compensations). *)
let san_payload_for ~name ~group (r : Sanitize.Sexec.result) : payload =
  let st = r.Sanitize.Sexec.sx_stats in
  let rep = Sanitize.Report.build r in
  let err_max =
    List.fold_left
      (fun m (f : Sanitize.Sexec.finding) ->
        match f.Sanitize.Sexec.f_kind with
        | Sanitize.Sexec.Check_output -> Float.max m f.Sanitize.Sexec.f_bits_max
        | _ -> m)
      0.0 rep.Sanitize.Report.findings
  in
  let causes = List.length rep.Sanitize.Report.findings in
  let metrics =
    {
      m_blocks = st.Sanitize.Sexec.blocks_run;
      m_stmts = st.Sanitize.Sexec.stmts_run;
      m_stmts_executed = st.Sanitize.Sexec.stmts_executed;
      m_fp_ops = st.Sanitize.Sexec.shadow_ops;
      m_trace_nodes = 0;
      m_traces_materialized = 0;
      m_spots = rep.Sanitize.Report.total_points;
      m_causes = causes;
      m_compensations = 0;
      m_err_max = err_max;
      m_escalations = 0;
      m_slice_stmts = 0;
    }
  in
  let summary =
    Printf.sprintf "%-24s %13s  max output error %5.1f bits, %d finding%s"
      name group err_max causes
      (if causes = 1 then "" else "s")
  in
  {
    p_metrics = metrics;
    p_summary = summary;
    p_report = Sanitize.Report.to_string rep;
    p_regime = None;
  }

(* The tiered engine's payload: pass 2's metrics and report when the
   program escalated (so a fully escalated job's record matches the full
   engine's, plus the escalation counters); pass 1's run stats and the
   clean-program report when it did not. *)
let tiered_payload_for ~name ~group ~nodes0 ~mat0 (r : Tiered.result) :
    payload =
  match r.Tiered.t_full with
  | Some full ->
      let p = payload_for ~name ~group ~nodes0 ~mat0 full in
      {
        p with
        p_metrics =
          {
            p.p_metrics with
            m_escalations = 1;
            m_slice_stmts = r.Tiered.t_slice_stmts;
          };
        p_summary =
          Printf.sprintf "%s [slice %d stmts]" p.p_summary
            r.Tiered.t_slice_stmts;
      }
  | None ->
      let st = r.Tiered.t_san.Sanitize.Sexec.sx_stats in
      let metrics =
        {
          m_blocks = st.Sanitize.Sexec.blocks_run;
          m_stmts = st.Sanitize.Sexec.stmts_run;
          m_stmts_executed = st.Sanitize.Sexec.stmts_executed;
          m_fp_ops = st.Sanitize.Sexec.shadow_ops;
          m_trace_nodes = 0;
          m_traces_materialized = 0;
          m_spots = 0;
          m_causes = 0;
          m_compensations = 0;
          m_err_max = 0.0;
          m_escalations = 0;
          m_slice_stmts = 0;
        }
      in
      let summary =
        Printf.sprintf
          "%-24s %13s  max output error %5.1f bits, 0 root causes [not \
           escalated]"
          name group 0.0
      in
      {
        p_metrics = metrics;
        p_summary = summary;
        p_report = Tiered.report_string r;
        p_regime = None;
      }

(* The one engine dispatch: run [prog] under [cfg]'s engine and build
   that engine's payload. Batch jobs ([bench_spec]) and the serve
   subsystem's ad-hoc sources both come through here, so a program
   yields the same record whichever front door it arrived by. *)
let analyze ~cfg ?(max_steps = 200_000_000) ~inputs ~tick ~name ~group prog :
    payload =
  match cfg.Core.Config.engine with
  | Core.Config.Full ->
      let nodes0 = Core.Trace.created_in_domain () in
      let mat0 = Core.Trace.materialized_in_domain () in
      let r = Core.Analysis.analyze ~cfg ~max_steps ~inputs ~tick prog in
      payload_for ~name ~group ~nodes0 ~mat0 r
  | Core.Config.Sanitize ->
      let r = Sanitize.Sexec.run ~max_steps ~inputs ~tick cfg prog in
      san_payload_for ~name ~group r
  | Core.Config.Tiered ->
      let nodes0 = Core.Trace.created_in_domain () in
      let mat0 = Core.Trace.materialized_in_domain () in
      let r = Tiered.analyze ~cfg ~max_steps ~inputs ~tick prog in
      tiered_payload_for ~name ~group ~nodes0 ~mat0 r

let bench_spec ?(cfg = Core.Config.default) ?max_steps (j : Fpcore.Suite.job) :
    spec =
  let b = j.Fpcore.Suite.job_bench in
  let iters = j.Fpcore.Suite.job_iterations in
  let work ~tick =
    let core = Fpcore.Suite.core_of b in
    let inputs =
      Fpcore.Suite.inputs_for ~seed:j.Fpcore.Suite.job_seed b ~n:iters
    in
    let prog =
      Fpcore.Compile.compile ~n_inputs:iters ~name:b.Fpcore.Suite.name core
    in
    analyze ~cfg ?max_steps ~inputs ~tick ~name:b.Fpcore.Suite.name
      ~group:(group_name b) prog
  in
  {
    sp_name = b.Fpcore.Suite.name;
    sp_group = group_name b;
    sp_key = job_key ~cfg j;
    sp_engine = Core.Config.engine_name cfg.Core.Config.engine;
    sp_work = work;
  }
