(* The N-way differential oracle.

   Each generated program is executed along several legs and every leg
   must produce bit-identical client outputs:

   - reference: the independent AST evaluator ([Interp]);
   - machine:   compile + uninstrumented VEX machine ([Vex.Machine]);
   - analysis:  the fully instrumented [Core.Analysis.analyze]
                (Herbgrind's transparency claim, paper section 3);
   - ablations: analysis with subsystems disabled — turning a subsystem
                off must never change client behaviour either;
   - vectorize: compile with auto-vectorization on;
   - mathlib:   compile with libm wrapping off (transcendentals run as
                traced MiniC code); numerically different from libm by
                design, so this leg only checks machine-vs-analysis
                transparency within the mode;
   - kernel:    a metamorphic check that Bigfloat at 53-bit precision
                reproduces native double arithmetic bit-for-bit on the
                kernel ops + - * / sqrt fma (subnormal results are
                skipped: Bigfloat's unbounded exponent does not
                double-round into the subnormal range the way hardware
                does; see DESIGN.md), and a precision-doubling check of
                every correctly rounded shadow libm call the generator
                emits, at the analysis precision;
   - sanitize:  the NSan-style dual-precision sanitizer engine
                ([Sanitize.Sexec]) — its client outputs must also be
                bit-identical to the machine's (same transparency claim,
                second engine);
   - consistency: the two engines' verdicts about *where* the error is
                must agree: an output the full analysis scores far above
                the threshold must not look clean to the sanitizer (and
                vice versa, modulo a slack for the precision gap), and a
                comparison/cast flip the sanitizer is certain about must
                be an incorrect spot in the full analysis too;
   - tiered:    the tiered engine's one-directional contract: every
                spot the tiered engine reports must be bit-identical —
                raw counters, error sums by bits, influence sets, and
                the rendered report entry — to the full engine's record
                for that spot, and its client outputs must match the
                full engine's. Spots the tiered engine misses (triage
                below dd resolution) are legitimate. *)

type divergence = { d_oracle : string; d_detail : string }

(* [Skip] means a leg ran out of step budget: a harness limit (the
   program legitimately runs long, e.g. transcendental mathlib loops
   inside generated while-loops), not a semantic divergence. *)
type result = Pass | Skip of string | Fail of divergence

type checks = {
  c_analysis : bool;
  c_ablations : bool;
  c_vectorize : bool;
  c_mathlib : bool;
  c_kernel : bool;
  c_sanitize : bool;  (* sanitizer-engine transparency *)
  c_consistency : bool;  (* sanitizer vs full-analysis verdict agreement *)
  c_tiered : bool;  (* tiered engine vs full-analysis bit-identity *)
  c_cfg : Core.Config.t;
  c_max_steps : int;
}

let default_checks =
  {
    c_analysis = true;
    c_ablations = false;
    c_vectorize = false;
    c_mathlib = false;
    c_kernel = true;
    c_sanitize = true;
    c_consistency = false;
    c_tiered = false;
    c_cfg = Core.Config.fast;
    c_max_steps = 2_000_000;
  }

(* everything on: what the campaign uses on a slice of its programs *)
let deep_checks =
  {
    default_checks with
    c_ablations = true;
    c_vectorize = true;
    c_mathlib = true;
    c_consistency = true;
    c_tiered = true;
  }

(* ---------- canonical outputs ---------- *)

(* canonical output: int, or float by bits (so NaN payloads, -0.0 and
   every rounding decision are all significant) *)
type obs = I of int64 | F of int64

let obs_to_string = function
  | I i -> Printf.sprintf "int %Ld" i
  | F b -> Printf.sprintf "float %.17g [bits %016Lx]" (Int64.float_of_bits b) b

let obs_of_interp (o : Interp.output) : obs =
  match o with
  | Interp.OInt i -> I i
  | Interp.OFloat f -> F (Int64.bits_of_float f)

let obs_of_machine (o : Vex.Machine.output) : obs =
  match (o.Vex.Machine.kind, o.Vex.Machine.value) with
  | Vex.Ir.OutInt, v -> I (Vex.Value.as_i64 v)
  | (Vex.Ir.OutFloat | Vex.Ir.OutMark), v ->
      F (Int64.bits_of_float (Vex.Value.as_f64 v))

let diff_obs ~left ~right (a : obs list) (b : obs list) : string option =
  if List.length a <> List.length b then
    Some
      (Printf.sprintf "%s printed %d values, %s printed %d" left
         (List.length a) right (List.length b))
  else
    let rec go i = function
      | [], [] -> None
      | x :: xs, y :: ys ->
          if x = y then go (i + 1) (xs, ys)
          else
            Some
              (Printf.sprintf "output %d: %s=%s, %s=%s" i left
                 (obs_to_string x) right (obs_to_string y))
      | _ -> assert false
    in
    go 0 (a, b)

(* ---------- legs ---------- *)

(* a leg yields outputs, a budget exhaustion (harness limit, not a
   bug: the whole program is then skipped), or an error string (which
   never matches another leg's outputs, so any crash surfaces as a
   divergence) *)
type leg_result = Obs of obs list | Out_of_budget of string | Err of string

let is_budget_msg msg =
  (* [Vex.Machine.drive]'s wording, shared by every engine *)
  let needle = "step budget" in
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

let leg (name : string) (f : unit -> obs list) : leg_result =
  match f () with
  | obs -> Obs obs
  | exception Interp.Budget -> Out_of_budget name
  | exception Interp.Runtime msg -> Err (name ^ ": " ^ msg)
  | exception Vex.Machine.Client_error msg ->
      if is_budget_msg msg then Out_of_budget name else Err (name ^ ": " ^ msg)
  | exception Division_by_zero -> Err (name ^ ": division by zero")
  | exception Minic.Compile_error msg -> Err (name ^ ": " ^ msg)

let compare_legs (lname : string) (l : leg_result) (rname : string)
    (r : leg_result) : result =
  match (l, r) with
  | Obs a, Obs b -> begin
      match diff_obs ~left:lname ~right:rname a b with
      | None -> Pass
      | Some d -> Fail { d_oracle = rname; d_detail = d }
    end
  | Out_of_budget n, _ | _, Out_of_budget n ->
      Skip (n ^ ": step budget exceeded")
  | Err e, _ -> Fail { d_oracle = lname; d_detail = e }
  | _, Err e -> Fail { d_oracle = rname; d_detail = e }

(* ---------- the kernel (metamorphic Bigfloat) oracle ---------- *)

let min_normal = 0x1p-1022

let kernel_apply_exact (name : string) (args : float array) :
    Bignum.Bigfloat.t =
  let module B = Bignum.Bigfloat in
  let a = Array.map B.of_float args in
  match (name, a) with
  | "add", [| x; y |] -> B.add ~prec:53 x y
  | "sub", [| x; y |] -> B.sub ~prec:53 x y
  | "mul", [| x; y |] -> B.mul ~prec:53 x y
  | "div", [| x; y |] -> B.div ~prec:53 x y
  | "sqrt", [| x |] -> B.sqrt ~prec:53 x
  | "fma", [| x; y; z |] -> Bignum.Bigfloat_math.fma ~prec:53 x y z
  | _ -> invalid_arg ("kernel_apply_exact: " ^ name)

(* The precision-doubling oracle for a shadow function [f]: [f ~prec]
   must equal [f ~prec:(2 prec)] rounded to [prec] bits. A wide result
   that sits exactly on a prec-bit midpoint no longer tells which side
   the true value lies on (double rounding), so the reference then
   widens again, up to 16 prec. Compared structurally, so the sign of a
   zero counts. *)
let doubling_check ~prec (f : prec:int -> Bignum.Bigfloat.t) : string option =
  let module B = Bignum.Bigfloat in
  let midpoint y =
    B.is_finite y && (not (B.is_zero y)) && B.precision_of y = prec + 1
  in
  let rec reference wide =
    let y = f ~prec:wide in
    if midpoint y && wide < 16 * prec then reference (2 * wide) else y
  in
  let got = f ~prec and want = B.round ~prec (reference (2 * prec)) in
  if got = want then None
  else begin
    (* enough digits to tell two prec-bit values apart *)
    let show = B.to_decimal_string ~digits:((prec / 3) + 3) in
    Some
      (Printf.sprintf "at %d bits %s, at 2x precision rounds to %s" prec
         (show got) (show want))
  end

(* the correctly rounded shadow libm calls the fuzzer generates, checked
   against themselves by [doubling_check] rather than against libm,
   which is only faithful *)
let libm_kernel :
    (string * (prec:int -> Bignum.Bigfloat.t array -> Bignum.Bigfloat.t)) list =
  let module M = Bignum.Bigfloat_math in
  let unary f ~prec a = f ~prec a.(0) in
  let binary f ~prec a = f ~prec a.(0) a.(1) in
  [
    ("sin", unary M.sin); ("cos", unary M.cos); ("tan", unary M.tan);
    ("exp", unary M.exp); ("log", unary M.log); ("atan", unary M.atan);
    ("cbrt", unary M.cbrt); ("expm1", unary M.expm1);
    ("log1p", unary M.log1p); ("sinh", unary M.sinh); ("tanh", unary M.tanh);
    ("pow", binary M.pow); ("atan2", binary M.atan2);
  ]

(* the 53-bit Bigfloat result of a basic op against the native double *)
let native_check (name : string) (args : float array) (r : float) :
    string option =
  if not (Float.is_finite r) then None (* overflow/NaN: out of scope *)
  else if r <> 0.0 && Float.abs r < min_normal then
    None (* subnormal double rounding: legitimately different *)
  else
    match kernel_apply_exact name args with
    | exception exn ->
        Some
          (Printf.sprintf "%s raised %s on %s" name (Printexc.to_string exn)
             (String.concat " "
                (Array.to_list (Array.map (Printf.sprintf "%h") args))))
    | br ->
        let rf = Bignum.Bigfloat.to_float br in
        if Int64.bits_of_float rf = Int64.bits_of_float r then None
        else
          Some
            (Printf.sprintf "%s(%s): native %h [%016Lx], bigfloat %h [%016Lx]"
               name
               (String.concat ", "
                  (Array.to_list (Array.map (Printf.sprintf "%h") args)))
               r
               (Int64.bits_of_float r)
               rf
               (Int64.bits_of_float rf))

(* Check one executed kernel op; return a mismatch description if the
   53-bit Bigfloat result of a basic op, sqrt or fma does not reproduce
   the native double [r], or if the shadow result of a [libm_kernel]
   call at the analysis precision [prec] fails [doubling_check] ([r] is
   not used then). Other calls are not checked. *)
let kernel_check ~prec (name : string) (args : float array) (r : float) :
    string option =
  if not (Array.for_all Float.is_finite args) then None
  else
    match List.assoc_opt name libm_kernel with
    | Some f ->
        let a = Array.map Bignum.Bigfloat.of_float args in
        doubling_check ~prec (fun ~prec -> f ~prec a)
        |> Option.map
             (Printf.sprintf "%s(%s): %s" name
                (String.concat ", "
                   (Array.to_list (Array.map (Printf.sprintf "%h") args))))
    | None -> (
        match name with
        | "add" | "sub" | "mul" | "div" | "sqrt" | "fma" ->
            native_check name args r
        | _ -> None)

(* ---------- the engine-consistency oracle ---------- *)

(* Calls the dd kernel evaluates natively; any other Dirty call makes
   the sanitizer's shadow fall back to double-precision libm, so its
   error magnitudes are not comparable to the full engine's and the
   consistency check would only measure that precision gap. *)
let dd_native = [ "__arg"; "sqrt"; "fabs"; "fma"; "fmin"; "fmax" ]

let has_passthrough_libm (prog : Vex.Ir.prog) : bool =
  Array.exists
    (fun (b : Vex.Ir.block) ->
      Array.exists
        (function
          | Vex.Ir.Dirty (_, name, _) -> not (List.mem name dd_native)
          | _ -> false)
        b.Vex.Ir.stmts)
    prog.Vex.Ir.blocks

(* The two engines measure against different references (an N-bit
   Bigfloat vs a ~106-bit double-double), so measured bits legitimately
   differ by a few ulps of the measurement itself. Only a gross
   disagreement — one engine far above the threshold while the other
   sees a clean output — is a divergence. *)
let consistency_slack = 15.0

let consistency_check ~(checks : checks) ~tick ~inputs (prog : Vex.Ir.prog) :
    result =
  if has_passthrough_libm prog then Pass
  else begin
    let cfg = checks.c_cfg in
    match
      let a =
        Core.Analysis.analyze ~cfg ~max_steps:checks.c_max_steps ~inputs ~tick
          prog
      in
      let s =
        Sanitize.Sexec.run ~max_steps:checks.c_max_steps ~inputs ~tick cfg prog
      in
      (a, s)
    with
    | exception Vex.Machine.Client_error msg ->
        if is_budget_msg msg then Skip "consistency: step budget exceeded"
        else Fail { d_oracle = "consistency"; d_detail = msg }
    | a, s ->
        let spots = a.Core.Analysis.raw.Core.Exec.r_spots in
        let thr = cfg.Core.Config.error_threshold in
        (* a float->int cast re-seeds the sanitizer's shadow from the
           integer (NSan semantics: the error is reported *at the cast*,
           then the int is the int), while the full engine carries its
           real through the round-trip — so once a cast has executed,
           downstream outputs are only comparable in the direction
           "sanitizer sees error the full engine doesn't" *)
        let cast_reseed =
          Hashtbl.fold
            (fun _ (f : Sanitize.Sexec.finding) acc ->
              acc || f.Sanitize.Sexec.f_kind = Sanitize.Sexec.Check_cast)
            s.Sanitize.Sexec.sx_findings false
        in
        let bad = ref None in
        Hashtbl.iter
          (fun id (f : Sanitize.Sexec.finding) ->
            if !bad = None then
              match f.Sanitize.Sexec.f_kind with
              | Sanitize.Sexec.Check_output ->
                  (* both engines observe every executed output, so a
                     missing full-engine spot means it measured no error *)
                  let full_err =
                    match Hashtbl.find_opt spots id with
                    | Some sp -> sp.Core.Exec.s_err_max
                    | None -> 0.0
                  in
                  let san_err = f.Sanitize.Sexec.f_bits_max in
                  (* a site that ever printed a nan or an infinity: the
                     verdict there hinges entirely on whether the
                     reference resolves the overflow or invalid, and the
                     two references legitimately differ. A Bigfloat
                     cannot represent nan (sqrt of a negative drops
                     provenance, so a full-engine 0.0 means "untracked",
                     not "clean"), and an exact 1e300-scale cancellation
                     is resolved by the dd's sparse hi + lo pair but
                     collapses in any fixed-precision real narrower than
                     the double exponent range — nothing to compare *)
                  let nonfinite = f.Sanitize.Sexec.f_nonfinite_hits > 0 in
                  if
                    (not nonfinite)
                    && ((full_err > thr +. consistency_slack && san_err <= thr
                       && not cast_reseed)
                       || (san_err > thr +. consistency_slack
                         && full_err <= thr))
                  then
                    bad :=
                      Some
                        (Printf.sprintf
                           "output at %s: full engine measured %.1f bits, \
                            sanitizer %.1f (threshold %.1f, slack %.1f)"
                           (Vex.Ir.loc_to_string f.Sanitize.Sexec.f_loc)
                           full_err san_err thr consistency_slack)
              | Sanitize.Sexec.Check_cmp | Sanitize.Sexec.Check_cast ->
                  (* one-directional: a flip the sanitizer is *certain*
                     about (every hit above dd resolution) must be an
                     incorrect spot in the full engine too; the reverse
                     can fail legitimately when the flip margin sits
                     between dd and Bigfloat resolution *)
                  if
                    f.Sanitize.Sexec.f_hits > 0
                    && f.Sanitize.Sexec.f_uncertain = 0
                  then begin
                    match Hashtbl.find_opt spots id with
                    | Some sp when sp.Core.Exec.s_incorrect = 0 ->
                        bad :=
                          Some
                            (Printf.sprintf
                               "%s at %s: sanitizer saw %d certain flip(s), \
                                full engine saw none"
                               (Sanitize.Sexec.check_kind_name
                                  f.Sanitize.Sexec.f_kind)
                               (Vex.Ir.loc_to_string f.Sanitize.Sexec.f_loc)
                               f.Sanitize.Sexec.f_hits)
                    | _ ->
                        (* no spot at all: the engines shadowed different
                           operands there (e.g. a constant the full engine
                           tracks exactly); nothing to compare *)
                        ()
                  end
              | Sanitize.Sexec.Check_store ->
                  (* the full engine has no per-store check to compare *)
                  ())
          s.Sanitize.Sexec.sx_findings;
        (match !bad with
        | None -> Pass
        | Some d -> Fail { d_oracle = "consistency"; d_detail = d })
  end

(* ---------- the tiered-consistency oracle ---------- *)

(* The tiered engine's contract is one-directional and exact: every spot
   it reports must be bit-identical to the full engine's record for that
   spot — raw counters, error sums compared by bits, influence sets, and
   the rendered report entry (which folds in the influencing ops'
   aggregates and anti-unified expressions). Client outputs must match
   the full engine's too. A spot the tiered engine *misses* is
   legitimate: the dd triage can sit below Bigfloat resolution. Unlike
   the magnitude-based consistency check, nothing here depends on the
   sanitizer's libm fallback, so passthrough-libm programs are fair
   game. *)
let tiered_check ~(checks : checks) ~tick ~inputs (prog : Vex.Ir.prog) :
    result =
  let cfg = checks.c_cfg in
  match
    let t =
      Tiered.analyze
        ~cfg:{ cfg with Core.Config.engine = Core.Config.Tiered }
        ~max_steps:checks.c_max_steps ~inputs ~tick prog
    in
    let full =
      Core.Analysis.analyze ~cfg ~max_steps:checks.c_max_steps ~inputs ~tick
        prog
    in
    (t, full)
  with
  | exception Vex.Machine.Client_error msg ->
      if is_budget_msg msg then Skip "tiered: step budget exceeded"
      else Fail { d_oracle = "tiered"; d_detail = msg }
  | t, full -> begin
      let fail d = Fail { d_oracle = "tiered"; d_detail = d } in
      let t_obs = List.map obs_of_machine (Tiered.outputs t) in
      let f_obs =
        List.map obs_of_machine full.Core.Analysis.raw.Core.Exec.r_outputs
      in
      match diff_obs ~left:"tiered" ~right:"full" t_obs f_obs with
      | Some d -> fail d
      | None -> (
          match t.Tiered.t_full with
          | None -> Pass (* not escalated: nothing reported, nothing owed *)
          | Some pass2 ->
              let fspots = full.Core.Analysis.raw.Core.Exec.r_spots in
              let bad = ref None in
              Hashtbl.iter
                (fun id (ts : Core.Exec.spot_info) ->
                  if !bad = None then
                    match Hashtbl.find_opt fspots id with
                    | None ->
                        bad :=
                          Some
                            (Printf.sprintf
                               "tiered spot at %s has no full-engine record"
                               (Vex.Ir.loc_to_string ts.Core.Exec.s_loc))
                    | Some fs ->
                        let b = Int64.bits_of_float in
                        if
                          ts.Core.Exec.s_total <> fs.Core.Exec.s_total
                          || ts.Core.Exec.s_incorrect
                             <> fs.Core.Exec.s_incorrect
                          || b ts.Core.Exec.s_err_sum
                             <> b fs.Core.Exec.s_err_sum
                          || b ts.Core.Exec.s_err_max
                             <> b fs.Core.Exec.s_err_max
                          || not
                               (Core.Shadow.IntSet.equal ts.Core.Exec.s_infl
                                  fs.Core.Exec.s_infl)
                        then
                          bad :=
                            Some
                              (Printf.sprintf
                                 "spot at %s: tiered %d/%d err %h/%h (%d \
                                  infl), full %d/%d err %h/%h (%d infl)"
                                 (Vex.Ir.loc_to_string ts.Core.Exec.s_loc)
                                 ts.Core.Exec.s_total ts.Core.Exec.s_incorrect
                                 ts.Core.Exec.s_err_sum ts.Core.Exec.s_err_max
                                 (Core.Shadow.IntSet.cardinal
                                    ts.Core.Exec.s_infl)
                                 fs.Core.Exec.s_total fs.Core.Exec.s_incorrect
                                 fs.Core.Exec.s_err_sum fs.Core.Exec.s_err_max
                                 (Core.Shadow.IntSet.cardinal
                                    fs.Core.Exec.s_infl)))
                pass2.Core.Analysis.raw.Core.Exec.r_spots;
              (* rendered report entries: byte-identical per spot *)
              if !bad = None then begin
                let full_entries = Hashtbl.create 7 in
                List.iter
                  (fun (e : Core.Report.entry) ->
                    Hashtbl.replace full_entries
                      e.Core.Report.e_spot.Core.Exec.s_id e)
                  full.Core.Analysis.report.Core.Report.entries;
                List.iter
                  (fun (e : Core.Report.entry) ->
                    if !bad = None then
                      let id = e.Core.Report.e_spot.Core.Exec.s_id in
                      match Hashtbl.find_opt full_entries id with
                      | None ->
                          bad :=
                            Some
                              (Printf.sprintf
                                 "tiered report entry at %s absent from the \
                                  full report"
                                 (Vex.Ir.loc_to_string
                                    e.Core.Report.e_spot.Core.Exec.s_loc))
                      | Some fe ->
                          let te_s = Core.Report.entry_to_string e in
                          let fe_s = Core.Report.entry_to_string fe in
                          if te_s <> fe_s then
                            bad :=
                              Some
                                (Printf.sprintf
                                   "report entry at %s differs\n  tiered: \
                                    %s\n  full:   %s"
                                   (Vex.Ir.loc_to_string
                                      e.Core.Report.e_spot.Core.Exec.s_loc)
                                   (String.trim te_s) (String.trim fe_s)))
                  pass2.Core.Analysis.report.Core.Report.entries
              end;
              (match !bad with None -> Pass | Some d -> fail d))
    end

(* ---------- the oracle proper ---------- *)

let run ?(checks = default_checks) ?tick ~(inputs : float array)
    (ast : Minic.Ast.program) : result =
  let tick = match tick with Some f -> f | None -> fun () -> () in
  let src = Printer.program ast in
  let file = "fuzz.mc" in
  (* reference leg, with the kernel hook recording as it goes *)
  let kernel_bad = ref None in
  let hook name args r =
    if !kernel_bad = None then
      let prec = checks.c_cfg.Core.Config.precision in
      match kernel_check ~prec name args r with
      | Some d -> kernel_bad := Some d
      | None -> ()
  in
  let reference =
    leg "reference" (fun () ->
        let hook = if checks.c_kernel then Some hook else None in
        List.map obs_of_interp (Interp.run ?hook ~inputs ast))
  in
  tick ();
  match Minic.compile ~file src with
  | exception Minic.Compile_error e -> Fail { d_oracle = "compile"; d_detail = e }
  | prog -> begin
      let machine =
        leg "machine" (fun () ->
            let st =
              Vex.Machine.run ~max_steps:checks.c_max_steps ~inputs prog
            in
            List.map obs_of_machine (Vex.Machine.outputs st))
      in
      tick ();
      let analysis_leg name cfg p =
        leg name (fun () ->
            let r =
              Core.Analysis.analyze ~cfg ~max_steps:checks.c_max_steps ~inputs
                ~tick p
            in
            List.map obs_of_machine r.Core.Analysis.raw.Core.Exec.r_outputs)
      in
      let ( let* ) r k = match r with Pass -> k () | Skip _ | Fail _ -> r in
      let* () = compare_legs "reference" reference "machine" machine in
      let* () =
        match !kernel_bad with
        | Some d when checks.c_kernel ->
            Fail { d_oracle = "kernel"; d_detail = d }
        | _ -> Pass
      in
      let* () =
        if not checks.c_analysis then Pass
        else begin
          let a = analysis_leg "analysis" checks.c_cfg prog in
          compare_legs "machine" machine "analysis" a
        end
      in
      let* () =
        if not checks.c_ablations then Pass
        else begin
          let ablations =
            [
              ("analysis-no-reals", { checks.c_cfg with Core.Config.enable_reals = false });
              ( "analysis-no-expressions",
                { checks.c_cfg with Core.Config.enable_expressions = false } );
              ( "analysis-no-influences",
                { checks.c_cfg with Core.Config.enable_influences = false } );
              ( "analysis-no-type-inference",
                { checks.c_cfg with Core.Config.type_inference = false } );
            ]
          in
          List.fold_left
            (fun acc (name, cfg) ->
              match acc with
              | Skip _ | Fail _ -> acc
              | Pass -> (
                  let a = analysis_leg name cfg prog in
                  match compare_legs "machine" machine "analysis" a with
                  | Pass -> Pass
                  | Skip s -> Skip s
                  | Fail d -> Fail { d with d_oracle = name }))
            Pass ablations
        end
      in
      let* () =
        if not checks.c_sanitize then Pass
        else begin
          let s =
            leg "sanitize" (fun () ->
                let r =
                  Sanitize.Sexec.run ~max_steps:checks.c_max_steps ~inputs
                    ~tick checks.c_cfg prog
                in
                List.map obs_of_machine (Sanitize.Sexec.outputs r))
          in
          compare_legs "machine" machine "sanitize" s
        end
      in
      let* () =
        if not checks.c_consistency then Pass
        else consistency_check ~checks ~tick ~inputs prog
      in
      let* () =
        if not checks.c_tiered then Pass
        else tiered_check ~checks ~tick ~inputs prog
      in
      let* () =
        if not checks.c_vectorize then Pass
        else begin
          let v =
            leg "vectorize" (fun () ->
                let p = Minic.compile ~vectorize:true ~file src in
                let st =
                  Vex.Machine.run ~max_steps:checks.c_max_steps ~inputs p
                in
                List.map obs_of_machine (Vex.Machine.outputs st))
          in
          compare_legs "machine" machine "vectorize" v
        end
      in
      let* () =
        if not checks.c_mathlib then Pass
        else begin
          (* mathlib results differ numerically from libm by design, so
             this leg checks transparency *within* the mode only *)
          match Minic.compile ~wrap_libm:false ~file src with
          | exception Minic.Compile_error e ->
              Fail { d_oracle = "mathlib"; d_detail = e }
          | p ->
              let m =
                leg "mathlib-machine" (fun () ->
                    let st =
                      Vex.Machine.run ~max_steps:checks.c_max_steps ~inputs p
                    in
                    List.map obs_of_machine (Vex.Machine.outputs st))
              in
              let a = analysis_leg "mathlib-analysis" checks.c_cfg p in
              compare_legs "mathlib-machine" m "mathlib-analysis" a
        end
      in
      Pass
    end

(* parse and run: the corpus-replay entry point *)
let run_source ?checks ?tick ~inputs (src : string) : result =
  match Minic.parse ~file:"corpus.mc" src with
  | exception Minic.Compile_error msg ->
      Fail { d_oracle = "parse"; d_detail = msg }
  | ast -> run ?checks ?tick ~inputs ast
