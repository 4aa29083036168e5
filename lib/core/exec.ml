(* The instrumented VEX executor: the analogue of running the client
   binary under Valgrind with the Herbgrind tool loaded. It is the full
   engine's shadow domain over [Vex.Shadow_exec]: a float's shadow
   carries the three shadow executions of paper section 4 (reals,
   influences, expressions), and this module adds the spot and op
   bookkeeping, libm wrapping, bit-trick results, and compensation
   detection. Concrete trace nodes are materialized only when the
   compiled program can reach a trace consumer; otherwise every creation
   site keeps the logical node count with [Trace.phantom]. *)

module B = Bignum.Bigfloat
module IntSet = Shadow.IntSet
module SE = Vex.Shadow_exec

type op_info = {
  o_id : int;
  o_loc : Vex.Ir.loc;
  o_name : string;
  o_agg : Antiunify.agg;
  mutable o_count : int;
  mutable o_local_err_sum : float;
  mutable o_local_err_max : float;
  mutable o_out_err_sum : float;
  mutable o_out_err_max : float;
}

type spot_kind = Spot_output | Spot_branch | Spot_convert

type spot_info = {
  s_id : int;
  s_loc : Vex.Ir.loc;
  s_kind : spot_kind;
  mutable s_total : int;
  mutable s_incorrect : int;  (* for branches/conversions *)
  mutable s_err_sum : float;  (* for outputs *)
  mutable s_err_max : float;
  mutable s_infl : IntSet.t;
}

type stats = {
  mutable blocks_run : int;
  mutable stmts_run : int;
  mutable stmts_executed : int;
  mutable stmts_instrumented : int;
  mutable fp_ops : int;
  mutable compensations : int;
}

(* what one run records; the executor owns everything else *)
type t = {
  cfg : Config.t;
  (* the lazy-trace materialization verdict for this run: expressions are
     enabled and the compiled program contains a trace consumer *)
  traces : bool;
  ops : (int, op_info) Hashtbl.t;
  spots : (int, spot_info) Hashtbl.t;
  mutable fp_ops : int;
  mutable compensations : int;
}

(* a comparison's shadow detail is the union of its operands' influences *)
type slot = (Shadow.t, IntSet.t) SE.slot

(* ---------- spot and op tables ---------- *)

let op_entry d (c : SE.site) name =
  let id = c.Vex.Compile.cs_id in
  match Hashtbl.find_opt d.ops id with
  | Some o -> o
  | None ->
      let o =
        {
          o_id = id;
          o_loc = c.Vex.Compile.cs_loc;
          o_name = name;
          o_agg = Antiunify.create ~equiv_depth:d.cfg.Config.equiv_depth;
          o_count = 0;
          o_local_err_sum = 0.0;
          o_local_err_max = 0.0;
          o_out_err_sum = 0.0;
          o_out_err_max = 0.0;
        }
      in
      Hashtbl.replace d.ops id o;
      o

let spot_entry d (c : SE.site) kind =
  let id = c.Vex.Compile.cs_id in
  match Hashtbl.find_opt d.spots id with
  | Some s -> s
  | None ->
      let s =
        {
          s_id = id;
          s_loc = c.Vex.Compile.cs_loc;
          s_kind = kind;
          s_total = 0;
          s_incorrect = 0;
          s_err_sum = 0.0;
          s_err_max = 0.0;
          s_infl = IntSet.empty;
        }
      in
      Hashtbl.replace d.spots id s;
      s

(* a divergence at a branch or conversion spot *)
let record_spot d c kind ~(agree : bool) (infl : IntSet.t) =
  let sp = spot_entry d c kind in
  sp.s_total <- sp.s_total + 1;
  if not agree then begin
    sp.s_incorrect <- sp.s_incorrect + 1;
    if d.cfg.Config.enable_influences then sp.s_infl <- IntSet.union sp.s_infl infl
  end

(* ---------- error metrics ---------- *)

(* [rf] is the exact value rounded to the nearest double *)
let out_error d (client : float) (rf : float) ~single =
  if not d.cfg.Config.enable_reals then 0.0
  else begin
    if single then Ieee.Single.bits_of_error client (Ieee.Single.of_double rf)
    else Ieee.bits_of_error client rf
  end

(* ---------- the float operation core ----------

   [do_op] implements one shadowed floating-point operation: computes the
   exact result, the local error (paper 4.3), influence taint with
   compensation detection (5.4), the concrete trace node, and folds the
   trace into the op's aggregation (6.3). *)

let arg_shadow d ~single (v : float) (sl : slot) : Shadow.t =
  match sl with
  | SE.SVal s -> s
  | SE.SNone | SE.SBool _ | SE.SVec _ ->
      Shadow.fresh_leaf ~single ~traces:d.traces v

let do_op d c ~name ~single ~(client : float)
    ~(client_fn : float array -> float) ~(real_fn : B.t array -> B.t)
    (args : (float * slot) array) : Shadow.t =
  d.fp_ops <- d.fp_ops + 1;
  let cfg = d.cfg in
  let shadows = Array.map (fun (v, sl) -> arg_shadow d ~single v sl) args in
  let real =
    if cfg.Config.enable_reals then
      real_fn (Array.map (fun s -> s.Shadow.real) shadows)
    else B.of_float client
  in
  let rounded = B.to_float real in
  (* local error: the exact inputs rounded to floats, the op run in client
     arithmetic, compared with the rounded exact result *)
  let local_err =
    if not cfg.Config.enable_reals then 0.0
    else begin
      let round f = if single then Ieee.Single.of_double f else f in
      let rounded_args = Array.map (fun s -> round s.Shadow.rounded) shadows in
      let r_f = client_fn rounded_args in
      let r_r = round rounded in
      if single then Ieee.Single.bits_of_error r_f r_r
      else Ieee.bits_of_error r_f r_r
    end
  in
  (* influences *)
  let infl =
    if not cfg.Config.enable_influences then IntSet.empty
    else begin
      let union_all =
        Array.fold_left
          (fun acc s -> IntSet.union acc s.Shadow.infl)
          IntSet.empty shadows
      in
      let compensating_passthrough () =
        (* an add/sub that returns one argument exactly in the reals, where
           the output is more accurate than the passed-through argument *)
        if
          (not cfg.Config.detect_compensation)
          || (name <> "+" && name <> "-")
          || Array.length shadows <> 2
          || not cfg.Config.enable_reals
        then None
        else begin
          let check i =
            let s = shadows.(i) in
            if B.equal real s.Shadow.real then begin
              let arg_err =
                out_error d (Shadow.client_value s) s.Shadow.rounded ~single
              in
              let out_err = out_error d client rounded ~single in
              if out_err < arg_err then Some s else None
            end
            else None
          in
          match check 0 with Some s -> Some s | None -> check 1
        end
      in
      match compensating_passthrough () with
      | Some passthrough ->
          (* Influence from the compensating term is dropped (paper 5.4).
             When the compensated result is itself accurate, the
             passed-through argument's taint is dropped too: its error has
             been repaired, so improving the tainting operation can no
             longer reduce output error. This is what keeps Triangle's 225
             compensated computations out of the report (section 7). *)
          d.compensations <- d.compensations + 1;
          if out_error d client rounded ~single <= cfg.Config.error_threshold
          then IntSet.empty
          else passthrough.Shadow.infl
      | None ->
          if local_err > cfg.Config.error_threshold then
            IntSet.add c.Vex.Compile.cs_id union_all
          else union_all
    end
  in
  (* trace; the node key hashes the exact result for equivalence
     inference. With expressions off the eager executor built a bare
     value leaf here; that leaf had no consumer, so it is phantom-counted
     instead. *)
  let trace =
    if cfg.Config.enable_expressions then
      Some
        (Trace.node ~max_depth:cfg.Config.max_trace_depth ~key:(B.hash real)
           name
           (Array.map Shadow.trace_of shadows)
           client)
    else begin
      Trace.phantom ();
      None
    end
  in
  (* aggregate *)
  if cfg.Config.enable_expressions then begin
    let o = op_entry d c name in
    (match trace with Some tr -> Antiunify.add o.o_agg tr | None -> ());
    o.o_count <- o.o_count + 1;
    o.o_local_err_sum <- o.o_local_err_sum +. local_err;
    if local_err > o.o_local_err_max then o.o_local_err_max <- local_err;
    let oe = out_error d client rounded ~single in
    o.o_out_err_sum <- o.o_out_err_sum +. oe;
    if oe > o.o_out_err_max then o.o_out_err_max <- oe
  end
  else if cfg.Config.enable_reals then begin
    (* still track error statistics even without expressions *)
    let o = op_entry d c name in
    o.o_count <- o.o_count + 1;
    o.o_local_err_sum <- o.o_local_err_sum +. local_err;
    if local_err > o.o_local_err_max then o.o_local_err_max <- local_err
  end;
  { Shadow.real; rounded; value = client; trace; infl; single }

(* ---------- the full engine's shadow domain ---------- *)

module Dom = struct
  type v = Shadow.t
  type b = IntSet.t
  type nonrec t = t

  let prec d = d.cfg.Config.precision

  let arith d c (op : SE.arith) ~single ~client a ash b bsh =
    let p = prec d in
    let name, client_fn, real_fn =
      match op with
      | SE.Add -> ("+", (if single then Ieee.Single.add else ( +. )), B.add ~prec:p)
      | SE.Sub -> ("-", (if single then Ieee.Single.sub else ( -. )), B.sub ~prec:p)
      | SE.Mul -> ("*", (if single then Ieee.Single.mul else ( *. )), B.mul ~prec:p)
      | SE.Div -> ("/", (if single then Ieee.Single.div else ( /. )), B.div ~prec:p)
      | SE.Min -> ("fmin", Float.min, B.min2)
      | SE.Max -> ("fmax", Float.max, B.max2)
    in
    do_op d c ~name ~single ~client
      ~client_fn:(fun x -> client_fn x.(0) x.(1))
      ~real_fn:(fun x -> real_fn x.(0) x.(1))
      [| (a, ash); (b, bsh) |]

  let sqrt d c ~single ~client a ash =
    do_op d c ~name:"sqrt" ~single ~client
      ~client_fn:(fun x -> if single then Ieee.Single.sqrt x.(0) else Float.sqrt x.(0))
      ~real_fn:(fun x -> B.sqrt ~prec:(prec d) x.(0))
      [| (a, ash) |]

  let libm d c name ~client fargs slots =
    do_op d c ~name ~single:false ~client
      ~client_fn:(Vex.Eval.libm_apply name)
      ~real_fn:(Vex.Eval.libm_apply_real ~prec:(prec d) name)
      (Array.map2 (fun v sl -> (v, sl)) fargs slots)

  (* negation and fabs are exact: a new real, and a trace node when
     expressions are on; otherwise the trace — and the value the eager
     trace node carried — ride along unchanged *)
  let sign d name f ~client (s : Shadow.t) : Shadow.t =
    let real = f s.Shadow.real in
    let s' = { s with Shadow.real; rounded = B.to_float real } in
    if d.cfg.Config.enable_expressions then
      let trace =
        Some
          (Trace.node ~max_depth:d.cfg.Config.max_trace_depth
             ~key:(B.hash real) name [| Shadow.trace_of s |] client)
      in
      { s' with value = client; trace }
    else s'

  let neg d ~client s = sign d "neg" B.neg ~client s
  let abs d ~client s = sign d "fabs" B.abs ~client s

  (* same value, new grid; no trace node (6.1) *)
  let precision ~single (s : Shadow.t) = { s with Shadow.single }

  let cmp d (k : SE.cmp) ~client a ash b bsh : slot =
    if not d.cfg.Config.enable_reals then SE.SNone
    else begin
      let sa = arg_shadow d ~single:false a ash in
      let sb = arg_shadow d ~single:false b bsh in
      let x = sa.Shadow.real and y = sb.Shadow.real in
      let shadow_b =
        match k with
        | SE.Eq -> B.equal x y
        | SE.Ne -> not (B.equal x y)
        | SE.Lt -> B.lt x y
        | SE.Le -> B.le x y
      in
      let detail =
        if d.cfg.Config.enable_influences then
          IntSet.union sa.Shadow.infl sb.Shadow.infl
        else IntSet.empty
      in
      SE.SBool { SE.client_b = client; shadow_b; detail }
    end

  (* int -> float: exact provenance *)
  let of_int d ~single ~client i : Shadow.t =
    let real = B.of_bigint (Bignum.Bigint.of_int (Int64.to_int i)) in
    let trace =
      if d.traces then Some (Trace.leaf ~key:(B.hash real) client)
      else begin
        Trace.phantom ();
        None
      end
    in
    { Shadow.real; rounded = B.to_float real; value = client; trace;
      infl = IntSet.empty; single }

  (* float -> int: a conversion spot *)
  let to_int d c ~rn (s : Shadow.t) client_int =
    if d.cfg.Config.enable_reals then begin
      let r = if rn then B.round_to_int s.Shadow.real else B.trunc s.Shadow.real in
      let shadow_int =
        match B.to_bigint r with
        | Some bi -> Bignum.Bigint.to_int_opt bi
        | None -> None
      in
      let agree = shadow_int = Some (Int64.to_int client_int) in
      record_spot d c Spot_convert ~agree s.Shadow.infl
    end

  let input d client = Shadow.fresh_leaf ~traces:d.traces client

  let branch d c (sb : IntSet.t SE.sbool) =
    record_spot d c Spot_branch ~agree:(sb.SE.client_b = sb.SE.shadow_b)
      sb.SE.detail

  let store _ _ _ _ = ()

  let output d c (v : Vex.Value.t) (sh : slot) =
    let sp = spot_entry d c Spot_output in
    sp.s_total <- sp.s_total + 1;
    match (v, sh) with
    | (Vex.Value.VF64 f | Vex.Value.VF32 f), SE.SVal s ->
        (* a NaN output is conservatively reported at full error, even
           when the shadow real is NaN too (the paper's Gram-Schmidt
           division-by-zero finding, section 7) *)
        let err =
          if Float.is_nan f && d.cfg.Config.enable_reals then 64.0
          else out_error d f s.Shadow.rounded ~single:s.Shadow.single
        in
        sp.s_err_sum <- sp.s_err_sum +. err;
        if err > sp.s_err_max then sp.s_err_max <- err;
        if err > d.cfg.Config.error_threshold && d.cfg.Config.enable_influences
        then sp.s_infl <- IntSet.union sp.s_infl s.Shadow.infl
    | _ -> ()
end

module X = SE.Make (Dom)

type result = {
  r_ops : (int, op_info) Hashtbl.t;
  r_spots : (int, spot_info) Hashtbl.t;
  r_outputs : Vex.Machine.output list;
  r_stats : stats;
}

let run ?mem_size ?max_steps ?inputs ?restrict ?tick (cfg : Config.t)
    (prog : Vex.Ir.prog) : result =
  let compiled =
    SE.compile ~type_inference:cfg.Config.type_inference ?restrict prog
  in
  let d =
    {
      cfg;
      traces =
        cfg.Config.enable_expressions && compiled.Vex.Compile.c_traces_reachable;
      ops = Hashtbl.create 256;
      spots = Hashtbl.create 64;
      fp_ops = 0;
      compensations = 0;
    }
  in
  let outputs, n = X.run ?mem_size ?max_steps ?inputs ?tick compiled d prog in
  {
    r_ops = d.ops;
    r_spots = d.spots;
    r_outputs = outputs;
    r_stats =
      {
        blocks_run = n.SE.blocks_run;
        stmts_run = n.SE.stmts_run;
        stmts_executed = n.SE.stmts_executed;
        stmts_instrumented = n.SE.stmts_instrumented;
        fp_ops = d.fp_ops;
        compensations = d.compensations;
      };
  }
