(* The shadow executor shared by every instrumented engine: it runs the
   client's pre-decoded superblocks ([Compile]), keeps a shadow beside
   every float temporary, thread-state slot and memory slot, and hands
   each float operation and each observation point to a shadow domain.
   Client semantics come from [Eval]; outputs are bit-identical to
   [Machine.run]'s.

   Everything that does not depend on what a shadow *is* lives here:
   the scratch-memory pool, the strided deadline tick, per-block frames,
   the shadow table and its aliasing rule, the shadow-free cases of the
   operators (reinterpretation, lanes, bit tricks, [Not1], integers) and
   the fast / off-slice / instrumented statement loop. A [DOMAIN]
   supplies the shadow arithmetic and decides what each observation
   records. *)

type ('v, 'b) slot =
  | SNone
  | SVal of 'v
  | SBool of 'b sbool
  | SVec of ('v, 'b) slot array

and 'b sbool = { client_b : bool; shadow_b : bool; detail : 'b }

type arith = Add | Sub | Mul | Div | Min | Max
type cmp = Eq | Ne | Lt | Le
type site = Compile.cstmt

module type DOMAIN = sig
  type v
  type b
  type t

  val arith :
    t -> site -> arith -> single:bool -> client:float ->
    float -> (v, b) slot -> float -> (v, b) slot -> v

  val sqrt : t -> site -> single:bool -> client:float -> float -> (v, b) slot -> v

  val libm :
    t -> site -> string -> client:float -> float array -> (v, b) slot array -> v

  val neg : t -> client:float -> v -> v
  val abs : t -> client:float -> v -> v
  val precision : single:bool -> v -> v

  val cmp :
    t -> cmp -> client:bool -> float -> (v, b) slot -> float -> (v, b) slot ->
    (v, b) slot

  val of_int : t -> single:bool -> client:float -> int64 -> v
  val to_int : t -> site -> rn:bool -> v -> int64 -> unit
  val input : t -> float -> v
  val branch : t -> site -> b sbool -> unit
  val store : t -> site -> Value.t -> (v, b) slot -> unit
  val output : t -> site -> Value.t -> (v, b) slot -> unit
end

(* The shadow table: a paged dense map from byte offsets to slots. An
   entry covers [addr, addr+size) from a 4-aligned start, and any
   overlapping write kills it; unaligned addresses never hold an entry.
   Loads and stores cost a few array reads, and nothing allocates after
   the first touch of a 4 KiB page. *)
module Tbl = struct
  type ('v, 'b) page = { slots : ('v, 'b) slot array; sizes : Bytes.t }
  type ('v, 'b) t = { pages : ('v, 'b) page option array }

  let page_cells = 1024

  let create nbytes =
    let ncells = (nbytes + 3) lsr 2 in
    { pages = Array.make (((ncells + page_cells - 1) / page_cells) + 1) None }

  (* the slot at exactly [addr]/[size], or [SNone] *)
  let get t addr size =
    if addr land 3 <> 0 || addr < 0 then SNone
    else
      let c = addr lsr 2 in
      let p = c / page_cells in
      if p >= Array.length t.pages then SNone
      else
        match t.pages.(p) with
        | None -> SNone
        | Some pg ->
            let i = c land (page_cells - 1) in
            if Bytes.get_uint8 pg.sizes i = size then pg.slots.(i) else SNone

  (* entries are at most 16 bytes wide, so only starts in
     [addr - 12, addr + size) can overlap *)
  let clear_range t addr size =
    let off = ref (addr - 12) in
    while !off < addr + size do
      (if !off >= 0 && !off land 3 = 0 then
         let c = !off lsr 2 in
         let p = c / page_cells in
         if p < Array.length t.pages then
           match t.pages.(p) with
           | None -> ()
           | Some pg ->
               let i = c land (page_cells - 1) in
               let esize = Bytes.get_uint8 pg.sizes i in
               if esize > 0 && !off + esize > addr then begin
                 Bytes.set_uint8 pg.sizes i 0;
                 pg.slots.(i) <- SNone
               end);
      off := !off + 4
    done

  let set t addr size s =
    clear_range t addr size;
    if addr land 3 = 0 && addr >= 0 then begin
      let c = addr lsr 2 in
      let p = c / page_cells in
      if p < Array.length t.pages then begin
        let pg =
          match t.pages.(p) with
          | Some pg -> pg
          | None ->
              let pg =
                {
                  slots = Array.make page_cells SNone;
                  sizes = Bytes.make page_cells '\000';
                }
              in
              t.pages.(p) <- Some pg;
              pg
        in
        let i = c land (page_cells - 1) in
        pg.slots.(i) <- s;
        Bytes.set_uint8 pg.sizes i size
      end
    end
end

(* A per-domain pool of one client-memory buffer: zeroing a fresh 1 MiB
   [Bytes.make] per execution costs more than many sanitizer runs do, so
   [run] parks its buffer here and the next run re-zeroes only the prefix
   the previous one touched ([mem_hw] bounds every load and store) —
   reads above the watermark still see the zeros machine semantics
   promise. *)
let scratch_pool : (Bytes.t * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let acquire_mem mem_size =
  let pool = Domain.DLS.get scratch_pool in
  match !pool with
  | Some (b, hw) when Bytes.length b = mem_size ->
      pool := None;
      Bytes.fill b 0 (min hw mem_size) '\000';
      b
  | _ -> Bytes.make mem_size '\000'

(* raw statements between wall-clock checks; small enough that a
   deadline overshoots by microseconds, large enough that the check is
   invisible in the profile *)
let tick_stride = 1024

type counters = {
  mutable blocks_run : int;
  mutable stmts_run : int;  (* raw statements, IMarks included *)
  mutable stmts_executed : int;  (* pre-decoded statements dispatched *)
  mutable stmts_instrumented : int;  (* statements on the shadow path *)
}

let compile ~type_inference ?restrict (prog : Ir.prog) =
  let restrict =
    Option.map
      (fun f ->
        Array.mapi
          (fun bi (b : Ir.block) ->
            Array.init (Array.length b.Ir.stmts) (fun si ->
                f (Ir.stmt_id ~block:bi ~stmt:si)))
          prog.Ir.blocks)
      restrict
  in
  Compile.get ~type_inference ?restrict prog

let lane_slot sl n i =
  match sl with SVec lanes when Array.length lanes = n -> lanes.(i) | _ -> SNone

let float_of_value = function
  | Value.VF64 f | Value.VF32 f -> f
  | v -> Value.type_error "expected float" v

exception Exit_to of int

module Make (D : DOMAIN) = struct
  type nonrec slot = (D.v, D.b) slot

  (* Per-block scratch, allocated once per run and reused on every
     execution of the block (the stepping loop runs one block at a time,
     so reuse cannot race). [esh] carries the shadow of the expression
     [eval] just returned — an out-parameter, so the evaluator never
     allocates a (value, slot) pair per node. *)
  type frame = {
    temps : Value.t array;
    tshadow : slot array;
    mutable esh : slot;
  }

  type state = {
    prog : Ir.prog;
    compiled : Compile.t;
    dom : D.t;
    mem : Bytes.t;
    mutable mem_hw : int;  (* exclusive bound of client memory traffic *)
    thread : Bytes.t;
    mem_shadow : (D.v, D.b) Tbl.t;
    thread_shadow : (D.v, D.b) Tbl.t;
    inputs : float array;  (* values returned by the __arg builtin *)
    mutable outputs : Machine.output list;  (* reversed *)
    counters : counters;
    frames : frame array;
    temp_inits : Value.t array array;  (* pristine temps per block *)
    tick : (unit -> unit) option;
    mutable stmts_since_tick : int;
  }

  let check_mem st addr size =
    if addr < 0 || addr + size > Bytes.length st.mem then
      raise
        (Machine.Client_error
           (Printf.sprintf "memory access out of bounds: %d" addr))
    else if addr + size > st.mem_hw then st.mem_hw <- addr + size

  let load_shadow tbl off (ty : Ir.ty) : slot =
    match ty with
    | Ir.F64 | Ir.I64 -> Tbl.get tbl off 8
    | Ir.F32 | Ir.I32 -> Tbl.get tbl off 4
    | Ir.V128 -> begin
        match (Tbl.get tbl off 8, Tbl.get tbl (off + 8) 8) with
        | SNone, SNone ->
            (* maybe four single lanes *)
            let lanes = Array.init 4 (fun i -> Tbl.get tbl (off + (4 * i)) 4) in
            if Array.exists (function SNone -> false | _ -> true) lanes then
              SVec lanes
            else SNone
        | lo, hi -> SVec [| lo; hi |]
      end
    | Ir.I1 | Ir.I8 | Ir.I16 -> SNone

  let store_shadow tbl off (v : Value.t) (sh : slot) =
    match (v, sh) with
    | Value.VV128 _, SVec lanes ->
        let lane_size = if Array.length lanes = 2 then 8 else 4 in
        Array.iteri
          (fun i sl ->
            match sl with
            | SVal _ -> Tbl.set tbl (off + (lane_size * i)) lane_size sl
            | SNone | SBool _ | SVec _ ->
                Tbl.clear_range tbl (off + (lane_size * i)) lane_size)
          lanes
    | Value.VV128 _, _ -> Tbl.clear_range tbl off 16
    | v, SVal _ ->
        let size =
          match Value.ty_of v with Ir.F32 | Ir.I32 -> 4 | _ -> 8
        in
        Tbl.set tbl off size sh
    | v, _ -> Tbl.clear_range tbl off (Ir.ty_size (Value.ty_of v))

  let shadow_unop st c (op : Ir.unop) (av : Value.t) (ash : slot)
      (result : Value.t) : slot =
    let d = st.dom in
    match op with
    | Ir.SqrtF64 ->
        SVal
          (D.sqrt d c ~single:false ~client:(Value.as_f64 result)
             (Value.as_f64 av) ash)
    | Ir.SqrtF32 ->
        SVal
          (D.sqrt d c ~single:true ~client:(Value.as_f32 result)
             (Value.as_f32 av) ash)
    | Ir.NegF64 | Ir.NegF32 -> begin
        match ash with
        | SVal s -> SVal (D.neg d ~client:(float_of_value result) s)
        | _ -> SNone
      end
    | Ir.AbsF64 | Ir.AbsF32 -> begin
        match ash with
        | SVal s -> SVal (D.abs d ~client:(float_of_value result) s)
        | _ -> SNone
      end
    (* precision conversions: same value, new grid *)
    | Ir.F32toF64 | Ir.F64toF32 -> begin
        match ash with
        | SVal s -> SVal (D.precision ~single:(op = Ir.F64toF32) s)
        | _ -> SNone
      end
    (* int -> float: exact provenance *)
    | Ir.I64toF64 ->
        SVal
          (D.of_int d ~single:false ~client:(Value.as_f64 result)
             (Value.as_i64 av))
    | Ir.I64toF32 ->
        SVal
          (D.of_int d ~single:true ~client:(Value.as_f32 result)
             (Value.as_i64 av))
    (* float -> int: an observation point; the integer carries no shadow *)
    | Ir.F64toI64tz | Ir.F32toI64tz | Ir.F64toI64rn ->
        (match ash with
        | SVal s ->
            D.to_int d c ~rn:(op = Ir.F64toI64rn) s (Value.as_i64 result)
        | _ -> ());
        SNone
    (* bit reinterpretation: the shadow rides along *)
    | Ir.ReinterpF64asI64 | Ir.ReinterpI64asF64 | Ir.ReinterpF32asI32
    | Ir.ReinterpI32asF32 ->
        ash
    | Ir.V128to64 -> lane_slot ash 2 0
    | Ir.V128HIto64 -> lane_slot ash 2 1
    | Ir.Sqrt64Fx2 ->
        let a0, a1 = Value.v128_f64_lanes (Value.as_v128 av) in
        let r0, r1 = Value.v128_f64_lanes (Value.as_v128 result) in
        let lane i a r =
          SVal (D.sqrt d c ~single:false ~client:r a (lane_slot ash 2 i))
        in
        SVec [| lane 0 a0 r0; lane 1 a1 r1 |]
    (* Not1 keeps comparison shadows so negated guards still track *)
    | Ir.Not1 -> begin
        match ash with
        | SBool sb ->
            SBool { sb with client_b = not sb.client_b; shadow_b = not sb.shadow_b }
        | _ -> SNone
      end
    | Ir.Neg64 | Ir.Not64 | Ir.I32toI64s | Ir.I32toI64u | Ir.I64toI32 -> SNone

  (* The helpers of [shadow_binop] live out here, not as closures inside
     it: a local closure would be allocated on every binop. *)
  let scalar st c fop ~single av ash bv bsh result =
    SVal
      (if single then
         D.arith st.dom c fop ~single ~client:(Value.as_f32 result)
           (Value.as_f32 av) ash (Value.as_f32 bv) bsh
       else
         D.arith st.dom c fop ~single ~client:(Value.as_f64 result)
           (Value.as_f64 av) ash (Value.as_f64 bv) bsh)

  (* one domain op per lane, at the same pc. The lanes are built in an
     array literal so the full engine aggregates them in the same order
     as every earlier executor (the pins record it). *)
  let simd2 st c fop av ash bv bsh result =
    let a0, a1 = Value.v128_f64_lanes (Value.as_v128 av) in
    let b0, b1 = Value.v128_f64_lanes (Value.as_v128 bv) in
    let r0, r1 = Value.v128_f64_lanes (Value.as_v128 result) in
    let lane i a b r =
      SVal
        (D.arith st.dom c fop ~single:false ~client:r a (lane_slot ash 2 i) b
           (lane_slot bsh 2 i))
    in
    SVec [| lane 0 a0 b0 r0; lane 1 a1 b1 r1 |]

  let simd4 st c fop av ash bv bsh result =
    let a0, a1, a2, a3 = Value.v128_f32_lanes (Value.as_v128 av) in
    let b0, b1, b2, b3 = Value.v128_f32_lanes (Value.as_v128 bv) in
    let r0, r1, r2, r3 = Value.v128_f32_lanes (Value.as_v128 result) in
    let lane i a b r =
      SVal
        (D.arith st.dom c fop ~single:true ~client:r a (lane_slot ash 4 i) b
           (lane_slot bsh 4 i))
    in
    SVec [| lane 0 a0 b0 r0; lane 1 a1 b1 r1; lane 2 a2 b2 r2; lane 3 a3 b3 r3 |]

  let compare st k av ash bv bsh result =
    D.cmp st.dom k ~client:(Value.as_bool result) (float_of_value av) ash
      (float_of_value bv) bsh

  let shadow_binop st c (op : Ir.binop) (av : Value.t) (ash : slot)
      (bv : Value.t) (bsh : slot) (result : Value.t) : slot =
    match op with
    | Ir.AddF64 -> scalar st c Add ~single:false av ash bv bsh result
    | Ir.SubF64 -> scalar st c Sub ~single:false av ash bv bsh result
    | Ir.MulF64 -> scalar st c Mul ~single:false av ash bv bsh result
    | Ir.DivF64 -> scalar st c Div ~single:false av ash bv bsh result
    | Ir.MinF64 -> scalar st c Min ~single:false av ash bv bsh result
    | Ir.MaxF64 -> scalar st c Max ~single:false av ash bv bsh result
    | Ir.AddF32 -> scalar st c Add ~single:true av ash bv bsh result
    | Ir.SubF32 -> scalar st c Sub ~single:true av ash bv bsh result
    | Ir.MulF32 -> scalar st c Mul ~single:true av ash bv bsh result
    | Ir.DivF32 -> scalar st c Div ~single:true av ash bv bsh result
    | Ir.CmpEQF64 | Ir.CmpEQF32 -> compare st Eq av ash bv bsh result
    | Ir.CmpNEF64 -> compare st Ne av ash bv bsh result
    | Ir.CmpLTF64 | Ir.CmpLTF32 -> compare st Lt av ash bv bsh result
    | Ir.CmpLEF64 | Ir.CmpLEF32 -> compare st Le av ash bv bsh result
    (* gcc bit tricks: XOR with the sign mask is negation, AND with the
       abs mask is fabs (paper 5.4) *)
    | Ir.Xor64 -> begin
        match (ash, bsh, av, bv) with
        | (SVal s, SNone, _, Value.VI64 m | SNone, SVal s, Value.VI64 m, _)
          when Int64.equal m Ieee.Bits.sign_flip_mask64 ->
            SVal (D.neg st.dom ~client:(Int64.float_of_bits (Value.as_i64 result)) s)
        | _ -> SNone
      end
    | Ir.And64 -> begin
        match (ash, bsh, av, bv) with
        | (SVal s, SNone, _, Value.VI64 m | SNone, SVal s, Value.VI64 m, _)
          when Int64.equal m Ieee.Bits.abs_mask64 ->
            SVal (D.abs st.dom ~client:(Int64.float_of_bits (Value.as_i64 result)) s)
        | _ -> SNone
      end
    | Ir.Add64Fx2 -> simd2 st c Add av ash bv bsh result
    | Ir.Sub64Fx2 -> simd2 st c Sub av ash bv bsh result
    | Ir.Mul64Fx2 -> simd2 st c Mul av ash bv bsh result
    | Ir.Div64Fx2 -> simd2 st c Div av ash bv bsh result
    | Ir.Add32Fx4 -> simd4 st c Add av ash bv bsh result
    | Ir.Sub32Fx4 -> simd4 st c Sub av ash bv bsh result
    | Ir.Mul32Fx4 -> simd4 st c Mul av ash bv bsh result
    | Ir.Div32Fx4 -> simd4 st c Div av ash bv bsh result
    (* Binop(hi, lo): lanes are [lo; hi] *)
    | Ir.I64HLtoV128 -> SVec [| bsh; ash |]
    | Ir.XorV128 | Ir.AndV128 | Ir.OrV128 | Ir.Add64 | Ir.Sub64 | Ir.Mul64
    | Ir.DivS64 | Ir.ModS64 | Ir.Or64 | Ir.Shl64 | Ir.Shr64 | Ir.Sar64
    | Ir.CmpEQ64 | Ir.CmpNE64 | Ir.CmpLT64S | Ir.CmpLE64S ->
        SNone

  (* the client value of [e]; its shadow is left in [fr.esh] *)
  let rec eval st fr c (e : Ir.expr) : Value.t =
    match e with
    | Ir.RdTmp t ->
        fr.esh <- fr.tshadow.(t);
        fr.temps.(t)
    | Ir.Const k ->
        fr.esh <- SNone;
        Value.of_const k
    | Ir.LabelAddr l ->
        (* compiled expressions pre-resolve labels; kept for raw input *)
        fr.esh <- SNone;
        Value.VI64 (Int64.of_int (Ir.block_index st.prog l))
    | Ir.Get (off, ty) ->
        fr.esh <- load_shadow st.thread_shadow off ty;
        Value.read_bytes st.thread off ty
    | Ir.Load (ty, a) ->
        let addr = Int64.to_int (Value.as_i64 (eval st fr c a)) in
        check_mem st addr (Ir.ty_size ty);
        fr.esh <- load_shadow st.mem_shadow addr ty;
        Value.read_bytes st.mem addr ty
    | Ir.Unop (op, a) ->
        let av = eval st fr c a in
        let ash = fr.esh in
        let v = Eval.eval_unop op av in
        fr.esh <- shadow_unop st c op av ash v;
        v
    | Ir.Binop (op, a, b) ->
        let av = eval st fr c a in
        let ash = fr.esh in
        let bv = eval st fr c b in
        let bsh = fr.esh in
        let v = Eval.eval_binop op av bv in
        fr.esh <- shadow_binop st c op av ash bv bsh v;
        v
    | Ir.ITE (g, t, e2) ->
        let gv = eval st fr c g in
        (* an ITE guarded by a float comparison is a branch *)
        (match fr.esh with SBool sb -> D.branch st.dom c sb | _ -> ());
        if Value.as_bool gv then eval st fr c t else eval st fr c e2

  (* the uninstrumented evaluator, for statements that touch no shadow *)
  let rec fast_eval st fr (e : Ir.expr) : Value.t =
    match e with
    | Ir.RdTmp t -> fr.temps.(t)
    | Ir.Const k -> Value.of_const k
    | Ir.LabelAddr l -> Value.VI64 (Int64.of_int (Ir.block_index st.prog l))
    | Ir.Get (off, ty) -> Value.read_bytes st.thread off ty
    | Ir.Load (ty, a) ->
        let addr = Int64.to_int (Value.as_i64 (fast_eval st fr a)) in
        check_mem st addr (Ir.ty_size ty);
        Value.read_bytes st.mem addr ty
    | Ir.Unop (op, a) -> Eval.eval_unop op (fast_eval st fr a)
    | Ir.Binop (op, a, b) ->
        Eval.eval_binop op (fast_eval st fr a) (fast_eval st fr b)
    | Ir.ITE (g, t, e2) ->
        if Value.as_bool (fast_eval st fr g) then fast_eval st fr t
        else fast_eval st fr e2

  let push_output st (c : site) kind v =
    match kind with
    | Ir.OutMark -> () (* user spot mark: not a program output *)
    | Ir.OutFloat | Ir.OutInt ->
        st.outputs <-
          { Machine.stmt_id = c.Compile.cs_id; loc = c.Compile.cs_loc; kind; value = v }
          :: st.outputs

  (* machine-only execution of a statement that touches no float
     ([PFast], never an input, libm call or output) or lies off the
     tiered slice ([POff]). Thread and memory shadows are cleared rather
     than written, so an on-slice reader never sees a stale shadow; a
     temp's shadow is already [SNone], since temps are assigned once per
     block and the frame is reset on entry. No observation hook fires. *)
  let run_plain st fr (c : site) =
    match c.Compile.cs_op with
    | Compile.CWrTmp (t, e) -> fr.temps.(t) <- fast_eval st fr e
    | Compile.CPut (off, e) ->
        let v = fast_eval st fr e in
        Tbl.clear_range st.thread_shadow off (Ir.ty_size (Value.ty_of v));
        Value.write_bytes st.thread off v
    | Compile.CStore (a, ve) ->
        let addr = Int64.to_int (Value.as_i64 (fast_eval st fr a)) in
        let v = fast_eval st fr ve in
        let size = Ir.ty_size (Value.ty_of v) in
        check_mem st addr size;
        Tbl.clear_range st.mem_shadow addr size;
        Value.write_bytes st.mem addr v
    | Compile.CDirtyArg (t, args) ->
        let k =
          if Array.length args = 1 then Value.as_f64 (fast_eval st fr args.(0))
          else 0.0
        in
        fr.temps.(t) <- Value.VF64 (Machine.nth_input st.inputs k)
    | Compile.CDirty (t, name, args) ->
        let fargs = Array.map (fun a -> Value.as_f64 (fast_eval st fr a)) args in
        fr.temps.(t) <- Value.VF64 (Eval.libm_apply name fargs)
    | Compile.CExit (g, target) ->
        if Value.as_bool (fast_eval st fr g) then raise (Exit_to target)
    | Compile.COut (kind, e) -> push_output st c kind (fast_eval st fr e)

  let run_full st fr (c : site) =
    st.counters.stmts_instrumented <- st.counters.stmts_instrumented + 1;
    match c.Compile.cs_op with
    | Compile.CWrTmp (t, e) ->
        let v = eval st fr c e in
        fr.temps.(t) <- v;
        fr.tshadow.(t) <- fr.esh
    | Compile.CPut (off, e) ->
        let v = eval st fr c e in
        store_shadow st.thread_shadow off v fr.esh;
        Value.write_bytes st.thread off v
    | Compile.CStore (a, ve) ->
        let addr = Int64.to_int (Value.as_i64 (eval st fr c a)) in
        let v = eval st fr c ve in
        let sh = fr.esh in
        check_mem st addr (Ir.ty_size (Value.ty_of v));
        D.store st.dom c v sh;
        store_shadow st.mem_shadow addr v sh;
        Value.write_bytes st.mem addr v
    | Compile.CDirtyArg (t, args) ->
        (* a harness input: a fresh shadow with no provenance *)
        let vs = Array.map (eval st fr c) args in
        let k = if Array.length vs = 1 then Value.as_f64 vs.(0) else 0.0 in
        let client = Machine.nth_input st.inputs k in
        fr.temps.(t) <- Value.VF64 client;
        fr.tshadow.(t) <- SVal (D.input st.dom client)
    | Compile.CDirty (t, name, args) ->
        let slots = Array.make (Array.length args) SNone in
        let fargs =
          Array.mapi
            (fun i a ->
              let v = eval st fr c a in
              slots.(i) <- fr.esh;
              Value.as_f64 v)
            args
        in
        let client = Eval.libm_apply name fargs in
        fr.temps.(t) <- Value.VF64 client;
        fr.tshadow.(t) <- SVal (D.libm st.dom c name ~client fargs slots)
    | Compile.CExit (g, target) ->
        let gv = eval st fr c g in
        (match fr.esh with SBool sb -> D.branch st.dom c sb | _ -> ());
        if Value.as_bool gv then raise (Exit_to target)
    | Compile.COut (kind, e) ->
        let v = eval st fr c e in
        let sh = fr.esh in
        push_output st c kind v;
        D.output st.dom c v sh

  let run_block st (bidx : int) : int =
    let cb = st.compiled.Compile.cblocks.(bidx) in
    (* self-ticked deadline: check the wall clock at block granularity,
       but only once every [tick_stride] executed raw statements *)
    (match st.tick with
    | Some tick ->
        if st.stmts_since_tick >= tick_stride then begin
          tick ();
          st.stmts_since_tick <- 0
        end;
        st.stmts_since_tick <- st.stmts_since_tick + cb.Compile.cb_n_raw
    | None -> ());
    let fr = st.frames.(bidx) in
    let nt = Array.length fr.temps in
    Array.blit st.temp_inits.(bidx) 0 fr.temps 0 nt;
    Array.fill fr.tshadow 0 nt SNone;
    let stmts = cb.Compile.cb_stmts in
    let n = Array.length stmts in
    let cn = st.counters in
    let rec go i =
      if i >= n then begin
        cn.stmts_run <- cn.stmts_run + cb.Compile.cb_tail_w;
        match cb.Compile.cb_next with
        | Compile.CGoto t -> t
        | Compile.CIndirect e -> Int64.to_int (Value.as_i64 (fast_eval st fr e))
        | Compile.CHalt -> -1
      end
      else begin
        let c = stmts.(i) in
        cn.stmts_run <- cn.stmts_run + c.Compile.cs_run_w;
        cn.stmts_executed <- cn.stmts_executed + 1;
        (match c.Compile.cs_path with
        | Compile.PFast | Compile.POff -> run_plain st fr c
        | Compile.PFull -> run_full st fr c);
        go (i + 1)
      end
    in
    try go 0 with Exit_to target -> target

  let run ?(mem_size = Machine.default_mem_size) ?(max_steps = max_int)
      ?(inputs = [||]) ?tick (compiled : Compile.t) (dom : D.t)
      (prog : Ir.prog) : Machine.output list * counters =
    let st =
      {
        prog;
        compiled;
        dom;
        mem = acquire_mem mem_size;
        mem_hw = 0;
        thread = Bytes.make Machine.default_thread_size '\000';
        mem_shadow = Tbl.create mem_size;
        thread_shadow = Tbl.create Machine.default_thread_size;
        inputs;
        outputs = [];
        counters =
          { blocks_run = 0; stmts_run = 0; stmts_executed = 0; stmts_instrumented = 0 };
        frames =
          Array.map
            (fun (b : Ir.block) ->
              {
                temps = Array.map Machine.init_value b.Ir.temp_tys;
                tshadow = Array.make (Array.length b.Ir.temp_tys) SNone;
                esh = SNone;
              })
            prog.Ir.blocks;
        temp_inits =
          Array.map
            (fun (b : Ir.block) -> Array.map Machine.init_value b.Ir.temp_tys)
            prog.Ir.blocks;
        tick;
        (* start at the stride so the first block entry checks the
           deadline: an already-expired budget gets no free work *)
        stmts_since_tick = tick_stride;
      }
    in
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.get scratch_pool := Some (st.mem, st.mem_hw))
      (fun () ->
        st.counters.blocks_run <-
          Machine.drive ~max_steps prog ~run_block:(run_block st);
        (List.rev st.outputs, st.counters))
end
