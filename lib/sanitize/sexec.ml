(* The NSan-style sanitizer: the double-double ({!Twofloat}) shadow
   domain over [Vex.Shadow_exec], in place of the full analysis'
   Bigfloat-plus-trace-plus-influences shadow. Checks fire at the
   observable points of Courbet's NSan: memory stores of floats,
   float-to-integer casts, float comparisons that flip against the
   shadow, and program outputs. Outputs are bit-identical to
   [Vex.Machine.run]'s (the fuzz transparency oracle holds the engine to
   that). *)

module TF = Twofloat
module SE = Vex.Shadow_exec

type check_kind = Check_store | Check_cast | Check_cmp | Check_output

let check_kind_name = function
  | Check_store -> "store"
  | Check_cast -> "cast"
  | Check_cmp -> "branch"
  | Check_output -> "output"

type finding = {
  f_id : int;  (* statement id (pc) *)
  f_loc : Vex.Ir.loc;
  f_kind : check_kind;
  mutable f_total : int;  (* times the check executed *)
  mutable f_hits : int;  (* fired: error above threshold, or a flip *)
  mutable f_bits_sum : float;
  mutable f_bits_max : float;
  mutable f_uncertain : int;
      (* flips whose margin is below dd resolution: a higher-precision
         engine may legitimately disagree (the consistency oracle skips
         these) *)
  mutable f_nonfinite_hits : int;
      (* instances where the client value itself was nan or infinite:
         kept separate so the engine-consistency oracle can tell a
         verdict about an overflow/invalid from a measured-error one *)
}

exception Fatal_finding of finding

type stats = {
  mutable blocks_run : int;
  mutable stmts_run : int;
  mutable stmts_executed : int;  (* pre-decoded statements dispatched *)
  mutable stmts_instrumented : int;
  mutable shadow_ops : int;  (* dd-shadowed floating-point operations *)
  mutable checks_run : int;
}

(* a comparison's shadow detail: the error in the compared difference,
   and whether the margin was below what ~106 bits can resolve *)
type cmp_detail = { cmp_bits : float; uncertain : bool }
type slot = (TF.t, cmp_detail) SE.slot

type t = {
  threshold : float;
  fatal : bool;
  findings : (int, finding) Hashtbl.t;
  (* the same findings indexed [block].(stmt): check sites hit their
     entry with two array reads instead of a hash probe *)
  findings_by_stmt : finding option array array;
  mutable shadow_ops : int;
  mutable checks_run : int;
}

(* ---------- findings ---------- *)

let finding_entry d (c : SE.site) kind =
  let id = c.Vex.Compile.cs_id in
  let row = d.findings_by_stmt.(Vex.Ir.stmt_id_block id) in
  let si = Vex.Ir.stmt_id_stmt id in
  match row.(si) with
  | Some f -> f
  | None ->
      let f =
        {
          f_id = id;
          f_loc = c.Vex.Compile.cs_loc;
          f_kind = kind;
          f_total = 0;
          f_hits = 0;
          f_bits_sum = 0.0;
          f_bits_max = 0.0;
          f_uncertain = 0;
          f_nonfinite_hits = 0;
        }
      in
      row.(si) <- Some f;
      Hashtbl.replace d.findings id f;
      f

(* value-error checks (stores, outputs): fire above the threshold *)
let check_value d c ~kind ~(bits : float) =
  d.checks_run <- d.checks_run + 1;
  let f = finding_entry d c kind in
  f.f_total <- f.f_total + 1;
  f.f_bits_sum <- f.f_bits_sum +. bits;
  if bits > f.f_bits_max then f.f_bits_max <- bits;
  if bits > d.threshold then begin
    f.f_hits <- f.f_hits + 1;
    if d.fatal then raise (Fatal_finding f)
  end

(* flip checks (casts, comparisons): fire when the verdicts disagree *)
let check_flip d c ~kind ~(flip : bool) ~(bits : float) ~(uncertain : bool) =
  d.checks_run <- d.checks_run + 1;
  let f = finding_entry d c kind in
  f.f_total <- f.f_total + 1;
  if flip then begin
    f.f_hits <- f.f_hits + 1;
    f.f_bits_sum <- f.f_bits_sum +. bits;
    if bits > f.f_bits_max then f.f_bits_max <- bits;
    if uncertain then f.f_uncertain <- f.f_uncertain + 1;
    if d.fatal then raise (Fatal_finding f)
  end

(* error of a client float against its dd shadow, on the client's grid *)
let shadow_bits ~single (client : float) (sh : TF.t) =
  let rf = TF.to_float sh in
  if single then Ieee.Single.bits_of_error client (Ieee.Single.of_double rf)
  else Ieee.bits_of_error client rf

let sf_of (v : float) (sl : slot) : TF.t =
  match sl with SE.SVal x -> x | SE.SNone | SE.SBool _ | SE.SVec _ -> TF.of_float v

(* margin below which a dd comparison verdict is not trustworthy against
   an arbitrarily precise engine *)
let cmp_uncertainty_rel = 0x1p-88

(* ---------- the sanitizer's shadow domain ---------- *)

module Dom = struct
  type v = TF.t
  type b = cmp_detail
  type nonrec t = t

  let count d = d.shadow_ops <- d.shadow_ops + 1

  let arith d _ (op : SE.arith) ~single:_ ~client:_ a ash b bsh =
    count d;
    let x = sf_of a ash and y = sf_of b bsh in
    match op with
    | SE.Add -> TF.add x y
    | SE.Sub -> TF.sub x y
    | SE.Mul -> TF.mul x y
    | SE.Div -> TF.div x y
    | SE.Min -> TF.min2 x y
    | SE.Max -> TF.max2 x y

  let sqrt d _ ~single:_ ~client:_ a ash =
    count d;
    TF.sqrt (sf_of a ash)

  let libm d _ name ~client:_ fargs slots =
    count d;
    TF.libm_apply name (Array.map2 sf_of fargs slots)

  let neg _ ~client:_ x = TF.neg x
  let abs _ ~client:_ x = TF.abs x

  (* the dd shadow keeps its full width across precision conversions *)
  let precision ~single:_ x = x

  let cmp d (k : SE.cmp) ~client a ash b bsh : slot =
    count d;
    let ad = sf_of a ash and bd = sf_of b bsh in
    let shadow_b =
      match k with
      | SE.Eq -> TF.eq ad bd
      | SE.Ne -> not (TF.eq ad bd)
      | SE.Lt -> TF.lt ad bd
      | SE.Le -> TF.le ad bd
    in
    let diff = TF.sub ad bd in
    let cmp_bits = Ieee.bits_of_error (a -. b) (TF.to_float diff) in
    let scale =
      Float.max (Float.abs (TF.to_float ad)) (Float.abs (TF.to_float bd))
    in
    let uncertain =
      (not (TF.is_finite ad && TF.is_finite bd))
      || Float.abs (TF.to_float diff) <= scale *. cmp_uncertainty_rel
    in
    SE.SBool { SE.client_b = client; shadow_b; detail = { cmp_bits; uncertain } }

  let of_int _ ~single:_ ~client:_ i = TF.of_int64 i

  (* a float -> int cast: compare the client integer against the dd
     truncation/rounding; flag flips, with an uncertainty guard when the
     dd value sits within dd resolution of the rounding boundary *)
  let to_int d c ~rn x client_int =
    let shadow_int = TF.to_int64 ~rn x in
    let flip, bits =
      match shadow_int with
      | Some i ->
          ( not (Int64.equal i client_int),
            Ieee.bits_of_error (Int64.to_float client_int) (Int64.to_float i) )
      | None -> (true, 64.0)
    in
    let uncertain =
      (not (TF.is_finite x))
      ||
      let v = TF.to_float x in
      let frac = v -. Float.trunc v in
      let boundary_dist =
        if rn then Float.abs (Float.abs frac -. 0.5)
        else Float.min (Float.abs frac) (1.0 -. Float.abs frac)
      in
      boundary_dist <= (Float.abs v *. cmp_uncertainty_rel) +. 0x1p-200
    in
    check_flip d c ~kind:Check_cast ~flip ~bits ~uncertain

  (* a harness input: an exact dd shadow of the client value *)
  let input _ client = TF.of_float client

  let branch d c (sb : cmp_detail SE.sbool) =
    check_flip d c ~kind:Check_cmp
      ~flip:(sb.SE.client_b <> sb.SE.shadow_b)
      ~bits:sb.SE.detail.cmp_bits ~uncertain:sb.SE.detail.uncertain

  (* NSan's store check: how far has this value drifted by the time it
     is written back to memory? *)
  let store d c (v : Vex.Value.t) (sh : slot) =
    match (v, sh) with
    | Vex.Value.VF64 f, SE.SVal x ->
        check_value d c ~kind:Check_store ~bits:(shadow_bits ~single:false f x)
    | Vex.Value.VF32 f, SE.SVal x ->
        check_value d c ~kind:Check_store ~bits:(shadow_bits ~single:true f x)
    | _ -> ()

  let output d c (v : Vex.Value.t) (sh : slot) =
    match v with
    | Vex.Value.VF64 f | Vex.Value.VF32 f ->
        let single = match v with Vex.Value.VF32 _ -> true | _ -> false in
        (* a nan output is conservatively reported at full error even
           when the shadow is nan too, mirroring the full engine's rule *)
        let bits =
          if Float.is_nan f then 64.0 else shadow_bits ~single f (sf_of f sh)
        in
        check_value d c ~kind:Check_output ~bits;
        if not (Float.is_finite f) then begin
          let fe = finding_entry d c Check_output in
          fe.f_nonfinite_hits <- fe.f_nonfinite_hits + 1
        end
    | _ -> ()
end

module X = SE.Make (Dom)

(* ---------- results ---------- *)

type result = {
  sx_findings : (int, finding) Hashtbl.t;
  sx_outputs : Vex.Machine.output list;
  sx_stats : stats;
}

let run ?mem_size ?max_steps ?inputs ?tick ?(fatal = false)
    (cfg : Core.Config.t) (prog : Vex.Ir.prog) : result =
  let compiled =
    SE.compile ~type_inference:cfg.Core.Config.type_inference prog
  in
  let d =
    {
      threshold = cfg.Core.Config.error_threshold;
      fatal;
      findings = Hashtbl.create 64;
      findings_by_stmt =
        Array.map
          (fun (b : Vex.Ir.block) ->
            Array.make (Array.length b.Vex.Ir.stmts) None)
          prog.Vex.Ir.blocks;
      shadow_ops = 0;
      checks_run = 0;
    }
  in
  let outputs, n = X.run ?mem_size ?max_steps ?inputs ?tick compiled d prog in
  {
    sx_findings = d.findings;
    sx_outputs = outputs;
    sx_stats =
      {
        blocks_run = n.SE.blocks_run;
        stmts_run = n.SE.stmts_run;
        stmts_executed = n.SE.stmts_executed;
        stmts_instrumented = n.SE.stmts_instrumented;
        shadow_ops = d.shadow_ops;
        checks_run = d.checks_run;
      };
  }

let outputs r = r.sx_outputs

let findings r =
  Hashtbl.fold (fun _ f acc -> f :: acc) r.sx_findings []
  |> List.sort (fun a b ->
         match compare b.f_bits_max a.f_bits_max with
         | 0 -> compare a.f_id b.f_id
         | c -> c)
