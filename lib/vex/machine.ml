(* The uninstrumented VEX machine: byte-addressed memory, byte-addressed
   thread state (registers), per-superblock typed temporaries. This is the
   "native execution" baseline that overhead figures compare against. *)

type output = { stmt_id : int; loc : Ir.loc; kind : Ir.out_kind; value : Value.t }

type state = {
  prog : Ir.prog;
  mem : Bytes.t;
  thread : Bytes.t;
  inputs : float array;  (* values returned by the __arg builtin *)
  mutable outputs : output list;  (* reversed *)
  mutable steps : int;
  max_steps : int;
}

exception Client_error of string

let default_mem_size = 1 lsl 20
let default_thread_size = 1 lsl 10

let create ?(mem_size = default_mem_size) ?(max_steps = max_int)
    ?(inputs = [||]) prog =
  {
    prog;
    mem = Bytes.make mem_size '\000';
    thread = Bytes.make default_thread_size '\000';
    inputs;
    outputs = [];
    steps = 0;
    max_steps;
  }

(* [__arg k] semantics shared by every engine: wrap the index into the
   input vector (empty vector reads as 0.0) *)
let nth_input (inputs : float array) (k : float) : float =
  let n = Array.length inputs in
  if n = 0 then 0.0
  else begin
    let i = int_of_float k in
    inputs.(((i mod n) + n) mod n)
  end

let read_input st (k : float) : float = nth_input st.inputs k

let check_mem st addr size =
  if addr < 0 || addr + size > Bytes.length st.mem then
    raise
      (Client_error (Printf.sprintf "memory access out of bounds: %d" addr))

let load st ty addr =
  check_mem st addr (Ir.ty_size ty);
  Value.read_bytes st.mem addr ty

let store st addr v =
  check_mem st addr (Ir.ty_size (Value.ty_of v));
  Value.write_bytes st.mem addr v

let get_thread st ty off = Value.read_bytes st.thread off ty
let put_thread st off v = Value.write_bytes st.thread off v

let rec eval_expr st (temps : Value.t array) (e : Ir.expr) : Value.t =
  match e with
  | Ir.RdTmp t -> temps.(t)
  | Ir.Const c -> Value.of_const c
  | Ir.LabelAddr l -> Value.VI64 (Int64.of_int (Ir.block_index st.prog l))
  | Ir.Get (off, ty) -> get_thread st ty off
  | Ir.Load (ty, a) ->
      let addr = Int64.to_int (Value.as_i64 (eval_expr st temps a)) in
      load st ty addr
  | Ir.Unop (op, a) -> Eval.eval_unop op (eval_expr st temps a)
  | Ir.Binop (op, a, b) ->
      Eval.eval_binop op (eval_expr st temps a) (eval_expr st temps b)
  | Ir.ITE (g, t, e2) ->
      if Value.as_bool (eval_expr st temps g) then eval_expr st temps t
      else eval_expr st temps e2

let init_value : Ir.ty -> Value.t = function
  | Ir.I1 -> Value.VBool false
  | Ir.I8 | Ir.I16 | Ir.I64 -> Value.VI64 0L
  | Ir.I32 -> Value.VI32 0l
  | Ir.F64 -> Value.VF64 0.0
  | Ir.F32 -> Value.VF32 0.0
  | Ir.V128 -> Value.VV128 (0L, 0L)

exception Exit_to of int

(* Run one superblock; return the next block index, or -1 to halt. *)
let run_block st (bidx : int) : int =
  let b = st.prog.Ir.blocks.(bidx) in
  let temps = Array.map init_value b.Ir.temp_tys in
  let cur_loc = ref Ir.no_loc in
  let n = Array.length b.Ir.stmts in
  let rec go i =
    if i >= n then
      match b.Ir.next with
      | Ir.Goto l -> Ir.block_index st.prog l
      | Ir.IndirectGoto e ->
          Int64.to_int (Value.as_i64 (eval_expr st temps e))
      | Ir.Halt -> -1
    else begin
      (match b.Ir.stmts.(i) with
      | Ir.IMark l -> cur_loc := l
      | Ir.WrTmp (t, e) -> temps.(t) <- eval_expr st temps e
      | Ir.Put (off, e) -> put_thread st off (eval_expr st temps e)
      | Ir.Store (a, v) ->
          let addr = Int64.to_int (Value.as_i64 (eval_expr st temps a)) in
          store st addr (eval_expr st temps v)
      | Ir.Dirty (t, name, args) ->
          let fargs =
            Array.of_list
              (List.map (fun a -> Value.as_f64 (eval_expr st temps a)) args)
          in
          let result =
            if name = "__arg" then read_input st fargs.(0)
            else Eval.libm_apply name fargs
          in
          temps.(t) <- Value.VF64 result
      | Ir.Exit (g, l) ->
          if Value.as_bool (eval_expr st temps g) then
            raise (Exit_to (Ir.block_index st.prog l))
      | Ir.Out (Ir.OutMark, e) ->
          (* analysis-only spot: evaluate for effect parity, do not record *)
          ignore (eval_expr st temps e)
      | Ir.Out ((Ir.OutFloat | Ir.OutInt) as kind, e) ->
          let v = eval_expr st temps e in
          st.outputs <-
            { stmt_id = Ir.stmt_id ~block:bidx ~stmt:i; loc = !cur_loc; kind; value = v }
            :: st.outputs);
      go (i + 1)
    end
  in
  try go 0 with Exit_to target -> target

(* The superblock stepping loop shared by every engine (this machine and
   the shadow executor): start at the entry block, follow the indices
   [run_block] returns, stop at -1. Returns the number of superblocks
   run. *)
let drive ?(max_steps = max_int) (prog : Ir.prog) ~(run_block : int -> int) :
    int =
  let bidx = ref prog.Ir.entry in
  let steps = ref 0 in
  while !bidx >= 0 do
    if !bidx >= Array.length prog.Ir.blocks then
      raise (Client_error (Printf.sprintf "jump out of program: %d" !bidx));
    incr steps;
    if !steps > max_steps then raise (Client_error "step budget exceeded");
    bidx := run_block !bidx
  done;
  !steps

let run ?mem_size ?max_steps ?inputs prog =
  let st = create ?mem_size ?max_steps ?inputs prog in
  st.steps <- drive ~max_steps:st.max_steps st.prog ~run_block:(run_block st);
  st

let outputs st = List.rev st.outputs

let output_floats st =
  List.filter_map
    (fun o -> match o.value with Value.VF64 f -> Some f | Value.VF32 f -> Some f | _ -> None)
    (outputs st)
