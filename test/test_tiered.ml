(* Tests of the fpgrind.tiered subsystem: the static backward slicer on
   hand-built VEX programs (exact expected membership), the escalation
   planner, the off-slice-stays-machine-only property of restricted
   execution, and the end-to-end consistency contract — a tiered report
   byte-identical to the full engine's on a flagged program, silence on
   a clean one. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let cfg = Core.Config.fast (* 128-bit shadow precision for test speed *)
let tiered_cfg = { cfg with Core.Config.engine = Core.Config.Tiered }

let compile src = Minic.compile ~file:"test.mc" src

(* ---------- the slicer on hand-built programs ---------- *)

(* Two independent chains through thread state:

     chain A: t0 = 1.0 + 2.0; Put 0;  t2 = Get 0;  Out t2   (stmts 1,2,5,6)
     chain B: t1 = 3.0 * 4.0; Put 8;  t3 = Get 8;  Out t3   (stmts 3,4,7,8)

   Seeding on one Out must pull in exactly that chain. *)
let two_chain_prog () =
  let open Vex.Ir in
  let f c = Const (CF64 c) in
  make_prog
    [
      {
        label = "entry";
        temp_tys = [| F64; F64; F64; F64 |];
        stmts =
          [|
            IMark { file = "t.mc"; line = 1; func = "main" };
            WrTmp (0, Binop (AddF64, f 1.0, f 2.0));
            Put (0, RdTmp 0);
            WrTmp (1, Binop (MulF64, f 3.0, f 4.0));
            Put (8, RdTmp 1);
            WrTmp (2, Get (0, F64));
            Out (OutFloat, RdTmp 2);
            WrTmp (3, Get (8, F64));
            Out (OutFloat, RdTmp 3);
          |];
        next = Halt;
      };
    ]

let sid s = Vex.Ir.stmt_id ~block:0 ~stmt:s

let slice_follows_one_chain () =
  let prog = two_chain_prog () in
  let sl = Vex.Slice.compute prog ~seeds:[ sid 6 ] in
  checki "chain A slice size" 4 (Vex.Slice.size sl);
  List.iter
    (fun s ->
      checkb
        (Printf.sprintf "stmt %d on slice" s)
        true
        (Vex.Slice.contains sl (sid s)))
    [ 1; 2; 5; 6 ];
  List.iter
    (fun s ->
      checkb
        (Printf.sprintf "stmt %d off slice" s)
        false
        (Vex.Slice.contains sl (sid s)))
    [ 0; 3; 4; 7; 8 ]

let slice_follows_other_chain () =
  let prog = two_chain_prog () in
  let sl = Vex.Slice.compute prog ~seeds:[ sid 8 ] in
  checki "chain B slice size" 4 (Vex.Slice.size sl);
  List.iter
    (fun s -> checkb "on slice" true (Vex.Slice.contains sl (sid s)))
    [ 3; 4; 7; 8 ];
  List.iter
    (fun s -> checkb "off slice" false (Vex.Slice.contains sl (sid s)))
    [ 1; 2; 5; 6 ]

let slice_union_of_seeds () =
  let prog = two_chain_prog () in
  let sl = Vex.Slice.compute prog ~seeds:[ sid 6; sid 8 ] in
  checki "both chains" 8 (Vex.Slice.size sl)

(* A load pulls in exactly the stores whose address class may alias its
   own: constant addresses by byte-range overlap, unknown addresses
   always. *)
let loads_pull_aliasing_stores () =
  let open Vex.Ir in
  let f c = Const (CF64 c) in
  let prog =
    make_prog
      [
        {
          label = "entry";
          temp_tys = [| I64; F64; F64 |];
          stmts =
            [|
              Store (Const (CI64 0L), f 7.0);
              Store (Const (CI64 8L), f 9.0);
              WrTmp (0, Get (16, I64));
              Store (RdTmp 0, f 11.0);
              WrTmp (1, Load (F64, Const (CI64 0L)));
              Out (OutFloat, RdTmp 1);
            |];
          next = Halt;
        };
      ]
  in
  let sl = Vex.Slice.compute prog ~seeds:[ sid 5 ] in
  (* the overlapping constant store and the unknown-address store are
     in; the disjoint constant store stays out *)
  List.iter
    (fun s -> checkb "on slice" true (Vex.Slice.contains sl (sid s)))
    [ 0; 2; 3; 4; 5 ];
  checkb "disjoint store off slice" false (Vex.Slice.contains sl (sid 1))

(* Frame-relative addresses at distinct constant offsets never alias,
   and never alias the global segment's constant addresses. *)
let frame_offsets_disjoint () =
  let open Vex.Ir in
  let f c = Const (CF64 c) in
  let c64 k = Const (CI64 (Int64.of_int k)) in
  let prog =
    make_prog
      [
        {
          label = "entry";
          temp_tys = [| I64; I64; I64; F64; F64 |];
          stmts =
            [|
              WrTmp (0, Get (8, I64));
              (* fp *)
              WrTmp (1, Binop (Add64, RdTmp 0, c64 16));
              WrTmp (2, Binop (Add64, RdTmp 0, c64 24));
              Store (RdTmp 1, f 1.5);
              (* fp+16 *)
              Store (RdTmp 2, f 2.5);
              (* fp+24 *)
              Store (Const (CI64 16L), f 3.5);
              (* global 16 *)
              WrTmp (3, Load (F64, RdTmp 1));
              (* reads fp+16 *)
              Out (OutFloat, RdTmp 3);
            |];
          next = Halt;
        };
      ]
  in
  let sl = Vex.Slice.compute prog ~seeds:[ sid 7 ] in
  List.iter
    (fun s -> checkb "on slice" true (Vex.Slice.contains sl (sid s)))
    [ 0; 1; 3; 6; 7 ];
  checkb "other frame slot off slice" false (Vex.Slice.contains sl (sid 4));
  checkb "global store off slice" false (Vex.Slice.contains sl (sid 5))

let bad_seed_rejected () =
  let prog = two_chain_prog () in
  Alcotest.check_raises "out-of-range id"
    (Invalid_argument "Slice.compute: bad stmt id 65536") (fun () ->
      ignore (Vex.Slice.compute prog ~seeds:[ Vex.Ir.stmt_id ~block:1 ~stmt:0 ]))

(* ---------- the planner and off-slice machine-only execution ---------- *)

(* One erroneous output plus an independent loop of exact arithmetic:
   the planner must seed only the flagged output, and pass 2 must leave
   the clean chain uninstrumented. *)
let mixed_src =
  {| int main() {
       int i;
       double x = __arg(0);
       double bad = (x + 1.0) - x;
       double clean = 0.0;
       for (i = 0; i < 50; i = i + 1) {
         clean = clean + 1.5;
       }
       print(bad);
       print(clean);
       return 0;
     } |}

let off_slice_stays_machine_only () =
  let prog = compile mixed_src in
  let inputs = [| 1e16 |] in
  let t = Tiered.analyze ~cfg:tiered_cfg ~inputs prog in
  checkb "escalated" true (Tiered.escalated t);
  checki "single seed" 1 (List.length t.Tiered.t_seeds);
  let pass2 =
    match t.Tiered.t_full with Some r -> r | None -> assert false
  in
  let full = Core.Analysis.analyze ~cfg ~inputs prog in
  let fstats (r : Core.Analysis.result) = r.Core.Analysis.raw.Core.Exec.r_stats in
  checkb "slice is a strict subset of the program" true
    (t.Tiered.t_slice_stmts > 0
    && (fstats pass2).Core.Exec.stmts_instrumented
       < (fstats full).Core.Exec.stmts_instrumented);
  (* the clean loop's adds never get shadowed: strictly fewer fp ops *)
  checkb "fewer shadowed fp ops" true
    ((fstats pass2).Core.Exec.fp_ops < (fstats full).Core.Exec.fp_ops);
  (* off-slice spots are never materialized: the clean output has a
     full-engine spot but no tiered one *)
  let nspots (r : Core.Analysis.result) =
    Hashtbl.length r.Core.Analysis.raw.Core.Exec.r_spots
  in
  checkb "fewer spots than full" true (nspots pass2 < nspots full);
  (* but client outputs are still all produced, bit-identical *)
  let obs (os : Vex.Machine.output list) =
    List.map
      (fun (o : Vex.Machine.output) ->
        Int64.bits_of_float (Vex.Value.as_f64 o.Vex.Machine.value))
      (List.filter
         (fun (o : Vex.Machine.output) -> o.Vex.Machine.kind = Vex.Ir.OutFloat)
         os)
  in
  checkb "outputs bit-identical to full" true
    (obs (Tiered.outputs t) = obs full.Core.Analysis.raw.Core.Exec.r_outputs)

(* ---------- the end-to-end consistency contract ---------- *)

let report_identical_to_full () =
  let prog = compile mixed_src in
  let inputs = [| 1e16 |] in
  let t = Tiered.analyze ~cfg:tiered_cfg ~inputs prog in
  let full = Core.Analysis.analyze ~cfg ~inputs prog in
  checks "tiered report equals full report"
    (Core.Analysis.report_string full)
    (Tiered.report_string t)

let clean_program_never_escalates () =
  let prog =
    compile
      {| int main() {
           double x = __arg(0);
           print(x * 2.0);
           return 0;
         } |}
  in
  let t = Tiered.analyze ~cfg:tiered_cfg ~inputs:[| 3.5 |] prog in
  checkb "not escalated" false (Tiered.escalated t);
  checki "no seeds" 0 (List.length t.Tiered.t_seeds);
  checki "no slice" 0 t.Tiered.t_slice_stmts;
  checks "clean report" "No floating-point problems found.\n"
    (Tiered.report_string t)

(* ---------- failure paths, under every entry to the shadow executor ---------- *)

exception Deadline

(* one block computing a float from [load], storing it, printing it, and
   continuing at [next] *)
let fault_prog ?(addr = 0L) ?(store_at = 8L) next =
  let open Vex.Ir in
  make_prog
    [
      {
        label = "entry";
        temp_tys = [| F64; F64 |];
        stmts =
          [|
            WrTmp (0, Load (F64, Const (CI64 addr)));
            WrTmp (1, Binop (AddF64, RdTmp 0, Const (CF64 0.5)));
            Store (Const (CI64 store_at), RdTmp 1);
            Out (OutFloat, RdTmp 1);
          |];
        next;
      };
    ]

let out_of_bounds = Vex.Machine.default_mem_size

let fault_cases =
  [
    ( "out-of-bounds load",
      fault_prog ~addr:(Int64.of_int out_of_bounds) Vex.Ir.Halt,
      None,
      Vex.Machine.Client_error
        (Printf.sprintf "memory access out of bounds: %d" out_of_bounds) );
    ( "out-of-bounds store",
      fault_prog ~store_at:(Int64.of_int out_of_bounds) Vex.Ir.Halt,
      None,
      Vex.Machine.Client_error
        (Printf.sprintf "memory access out of bounds: %d" out_of_bounds) );
    ( "jump out of the program",
      fault_prog (Vex.Ir.IndirectGoto (Vex.Ir.Const (Vex.Ir.CI64 7L))),
      None,
      Vex.Machine.Client_error "jump out of program: 7" );
    ( "exceeded max_steps",
      fault_prog (Vex.Ir.Goto "entry"),
      Some 5,
      Vex.Machine.Client_error "step budget exceeded" );
    (* a one-block program finishes inside one tick stride, so only a
       check on the first block can fire *)
    ("expired tick fires on the first block", fault_prog Vex.Ir.Halt, None, Deadline);
  ]

let failure_paths () =
  let engines =
    [
      ("full", fun ?max_steps ?tick p -> ignore (Core.Exec.run ?max_steps ?tick cfg p));
      ( "full, off-slice",
        fun ?max_steps ?tick p ->
          ignore (Core.Exec.run ?max_steps ?tick ~restrict:(fun _ -> false) cfg p) );
      ("sanitize", fun ?max_steps ?tick p -> ignore (Sanitize.Sexec.run ?max_steps ?tick cfg p));
      ( "tiered",
        fun ?max_steps ?tick p ->
          ignore (Tiered.analyze ~cfg:tiered_cfg ?max_steps ?tick p) );
    ]
  in
  List.iter
    (fun (case, prog, max_steps, expected) ->
      List.iter
        (fun (engine, run) ->
          let ticks = ref 0 in
          let tick =
            if expected = Deadline then
              Some
                (fun () ->
                  incr ticks;
                  raise Deadline)
            else None
          in
          Alcotest.check_raises
            (Printf.sprintf "%s under %s" case engine)
            expected
            (fun () -> run ?max_steps ?tick prog);
          if expected = Deadline then
            checki (engine ^ ": one tick") 1 !ticks)
        engines)
    fault_cases

let () =
  Alcotest.run "tiered"
    [
      ( "slice",
        [
          Alcotest.test_case "seeding one chain" `Quick slice_follows_one_chain;
          Alcotest.test_case "seeding the other" `Quick
            slice_follows_other_chain;
          Alcotest.test_case "union of seeds" `Quick slice_union_of_seeds;
          Alcotest.test_case "loads pull aliasing stores" `Quick
            loads_pull_aliasing_stores;
          Alcotest.test_case "frame offsets disjoint" `Quick
            frame_offsets_disjoint;
          Alcotest.test_case "bad seed rejected" `Quick bad_seed_rejected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "off-slice stays machine-only" `Quick
            off_slice_stays_machine_only;
          Alcotest.test_case "report byte-identical to full" `Quick
            report_identical_to_full;
          Alcotest.test_case "clean program never escalates" `Quick
            clean_program_never_escalates;
          Alcotest.test_case "failure paths under every engine" `Quick
            failure_paths;
        ] );
    ]
