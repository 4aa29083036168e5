(* Tests of the fpgrind.fuzz subsystem itself: the generator's
   well-typedness guarantee, printer/parser round-trips, the seeded
   determinism contract (including jobs-independence), the shrinker
   (exercised against an injected oracle bug), the 53-bit Bigfloat
   kernel property, the pinned transcendental deviation set, and replay
   of the committed corpus.

   Iteration counts scale with FPGRIND_FUZZ_ITERS (default 120). *)

let iters =
  match Sys.getenv_opt "FPGRIND_FUZZ_ITERS" with
  | Some s -> ( try max 8 (int_of_string (String.trim s)) with _ -> 120)
  | None -> 120

let checkb = Alcotest.check Alcotest.bool

(* ---------- the PRNG ---------- *)

let rng_determinism () =
  let a = Fuzz.Rng.make_indexed ~seed:9 4 in
  let b = Fuzz.Rng.make_indexed ~seed:9 4 in
  for _ = 1 to 16 do
    Alcotest.(check int64) "same stream" (Fuzz.Rng.int64 a) (Fuzz.Rng.int64 b)
  done;
  let c = Fuzz.Rng.make_indexed ~seed:9 5 in
  checkb "adjacent indices differ" true
    (List.init 4 (fun _ -> Fuzz.Rng.int64 c)
    <> List.init 4 (fun _ -> Fuzz.Rng.int64 (Fuzz.Rng.make_indexed ~seed:9 4)));
  let d = Fuzz.Rng.make 9 in
  let e = Fuzz.Rng.split d in
  checkb "split diverges from parent" true
    (Fuzz.Rng.int64 d <> Fuzz.Rng.int64 e)

(* ---------- the generator ---------- *)

(* every generated program must compile: well-typed by construction *)
let generator_well_typed () =
  for i = 0 to iters - 1 do
    let ast, _ = Fuzz.Campaign.generate ~seed:17 i in
    let src = Fuzz.Printer.program ast in
    match Minic.compile ~file:"gen.mc" src with
    | _ -> ()
    | exception Minic.Compile_error msg ->
        Alcotest.failf "program %d does not compile: %s\n%s" i msg src
  done

(* printing then parsing then printing again is a fixpoint: the printer
   loses nothing the parser needs, so digests identify programs *)
let print_parse_roundtrip () =
  for i = 0 to (iters / 2) - 1 do
    let ast, _ = Fuzz.Campaign.generate ~seed:23 i in
    let src = Fuzz.Printer.program ast in
    match Minic.parse ~file:"gen.mc" src with
    | exception Minic.Compile_error msg ->
        Alcotest.failf "program %d does not parse: %s\n%s" i msg src
    | ast2 ->
        let src2 = Fuzz.Printer.program ast2 in
        if src <> src2 then
          Alcotest.failf "program %d round-trip changed:\n%s\n-- vs --\n%s" i
            src src2
  done

(* ---------- campaign determinism ---------- *)

let transcript_lines (t : Fuzz.Campaign.transcript) : string list =
  List.map Fuzz.Campaign.entry_to_line t.Fuzz.Campaign.t_entries

let seed_determinism () =
  let n = max 16 (iters / 4) in
  let a = Fuzz.Campaign.run ~seed:31 ~iters:n () in
  let b = Fuzz.Campaign.run ~seed:31 ~iters:n () in
  Alcotest.(check (list string))
    "same seed, same transcript" (transcript_lines a) (transcript_lines b);
  let c = Fuzz.Campaign.run ~seed:32 ~iters:n () in
  checkb "different seed, different transcript" true
    (transcript_lines a <> transcript_lines c)

(* the transcript is a pure function of (seed, iters): --jobs must not
   change it (program i depends only on (seed, i)) *)
let jobs_independence () =
  let n = max 32 (iters / 4) in
  let a = Fuzz.Campaign.run ~jobs:1 ~seed:33 ~iters:n () in
  let b = Fuzz.Campaign.run ~jobs:3 ~seed:33 ~iters:n () in
  Alcotest.(check (list string))
    "jobs=1 and jobs=3 agree" (transcript_lines a) (transcript_lines b)

(* ---------- the shrinker ---------- *)

(* Inject a fake oracle bug — "any compiling program containing a
   division diverges" — and check the shrinker produces a smaller,
   still-compiling program that still satisfies the predicate. *)
let shrinker_soundness () =
  let has_division (p : Minic.Ast.program) : bool =
    let src = Fuzz.Printer.program p in
    String.exists (fun c -> c = '/') src
  in
  let compiles (p : Minic.Ast.program) : bool =
    match Minic.compile ~file:"shrink.mc" (Fuzz.Printer.program p) with
    | _ -> true
    | exception Minic.Compile_error _ -> false
  in
  let still_fails p = compiles p && has_division p in
  (* find a seeded program that "fails" this oracle *)
  let rec find i =
    if i >= 500 then Alcotest.fail "no generated program contains a division"
    else
      let ast, _ = Fuzz.Campaign.generate ~seed:41 i in
      if still_fails ast then (i, ast) else find (i + 1)
  in
  let i, ast = find 0 in
  let small, stats = Fuzz.Shrink.shrink ~still_fails ast in
  checkb "shrunk program still fails the injected oracle" true
    (still_fails small);
  let len p = String.length (Fuzz.Printer.program p) in
  if len small > len ast then
    Alcotest.failf "shrink grew program %d: %d -> %d chars" i (len ast)
      (len small);
  checkb "shrinker made progress" true
    (stats.Fuzz.Shrink.rounds >= 1 && len small < len ast)

(* A shrunk reproducer must still trigger the oracle predicate under
   every engine — full, tiered, and sanitize — not just the engine that
   found it. The predicate here is "the program prints at least one
   output"; the shrinker only ever consults the full engine, and the
   cross-engine half of the property is checked once on the result. *)
let shrinker_cross_engine () =
  let cfg = Core.Config.fast in
  let max_steps = 2_000_000 in
  let compile_of (p : Minic.Ast.program) =
    match Minic.compile ~file:"xshrink.mc" (Fuzz.Printer.program p) with
    | prog -> Some prog
    | exception Minic.Compile_error _ -> None
  in
  let full_prints ~inputs p =
    match compile_of p with
    | None -> false
    | Some prog -> (
        match Core.Analysis.analyze ~cfg ~max_steps ~inputs prog with
        | r -> r.Core.Analysis.raw.Core.Exec.r_outputs <> []
        | exception _ -> false)
  in
  (* find a seeded program that prints *)
  let rec find i =
    if i >= 200 then Alcotest.fail "no generated program prints an output"
    else
      let ast, inputs = Fuzz.Campaign.generate ~seed:45 i in
      if full_prints ~inputs ast then (ast, inputs) else find (i + 1)
  in
  let ast, inputs = find 0 in
  let small, _stats =
    Fuzz.Shrink.shrink ~still_fails:(full_prints ~inputs) ast
  in
  checkb "shrunk program still triggers the predicate under full" true
    (full_prints ~inputs small);
  let prog =
    match compile_of small with
    | Some prog -> prog
    | None -> Alcotest.fail "shrunk program no longer compiles"
  in
  let out_bits (os : Vex.Machine.output list) =
    List.map
      (fun (o : Vex.Machine.output) ->
        Int64.bits_of_float (Vex.Value.as_f64 o.Vex.Machine.value))
      (List.filter
         (fun (o : Vex.Machine.output) -> o.Vex.Machine.kind = Vex.Ir.OutFloat)
         os)
  in
  let full_out =
    (Core.Analysis.analyze ~cfg ~max_steps ~inputs prog).Core.Analysis.raw
      .Core.Exec.r_outputs
  in
  let tiered =
    Tiered.analyze ~cfg:{ cfg with Core.Config.engine = Core.Config.Tiered }
      ~max_steps ~inputs prog
  in
  let san = Sanitize.Sexec.run ~max_steps ~inputs cfg prog in
  checkb "tiered engine also triggers the predicate" true
    (Tiered.outputs tiered <> []);
  checkb "sanitize engine also triggers the predicate" true
    (Sanitize.Sexec.outputs san <> []);
  Alcotest.(check (list int64))
    "tiered outputs bit-identical to full" (out_bits full_out)
    (out_bits (Tiered.outputs tiered));
  Alcotest.(check (list int64))
    "sanitize outputs bit-identical to full" (out_bits full_out)
    (out_bits (Sanitize.Sexec.outputs san))

(* shrinking is deterministic: same input, same predicate, same result *)
let shrinker_deterministic () =
  let still_fails p =
    match Minic.compile ~file:"s.mc" (Fuzz.Printer.program p) with
    | _ -> String.exists (fun c -> c = '*') (Fuzz.Printer.program p)
    | exception Minic.Compile_error _ -> false
  in
  let ast, _ = Fuzz.Campaign.generate ~seed:43 7 in
  if still_fails ast then begin
    let a, _ = Fuzz.Shrink.shrink ~still_fails ast in
    let b, _ = Fuzz.Shrink.shrink ~still_fails ast in
    Alcotest.(check string)
      "identical shrink result" (Fuzz.Printer.program a)
      (Fuzz.Printer.program b)
  end

(* ---------- the 53-bit Bigfloat kernel property ---------- *)

(* Bigfloat at 53-bit precision reproduces hardware double arithmetic
   bit-for-bit on the kernel ops (excluding non-finite and subnormal
   results; [Oracle.kernel_check] encodes those skip rules). The float
   generator draws raw bit patterns so exponents are uniform, not
   clustered near 1.0. *)
let gen_bits_float : float QCheck.Gen.t =
  QCheck.Gen.map
    (fun (hi, lo) ->
      Int64.float_of_bits
        (Int64.logor
           (Int64.shift_left (Int64.of_int hi) 32)
           (Int64.logand (Int64.of_int lo) 0xFFFFFFFFL)))
    QCheck.Gen.(pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))

let arb_bits_float = QCheck.make ~print:(Printf.sprintf "%h") gen_bits_float

let kernel_tests =
  let check2 op f =
    QCheck.Test.make
      ~name:(Printf.sprintf "53-bit bigfloat matches native %s" op)
      ~count:300
      QCheck.(pair arb_bits_float arb_bits_float)
      (fun (x, y) ->
        match Fuzz.Oracle.kernel_check ~prec:53 op [| x; y |] (f x y) with
        | None -> true
        | Some d -> QCheck.Test.fail_report d)
  in
  [
    check2 "add" ( +. );
    check2 "sub" ( -. );
    check2 "mul" ( *. );
    check2 "div" ( /. );
    QCheck.Test.make ~name:"53-bit bigfloat matches native sqrt" ~count:300
      arb_bits_float
      (fun x ->
        let x = Float.abs x in
        match
          Fuzz.Oracle.kernel_check ~prec:53 "sqrt" [| x |] (Float.sqrt x)
        with
        | None -> true
        | Some d -> QCheck.Test.fail_report d);
    QCheck.Test.make ~name:"53-bit bigfloat matches native fma" ~count:300
      QCheck.(triple arb_bits_float arb_bits_float arb_bits_float)
      (fun (x, y, z) ->
        match
          Fuzz.Oracle.kernel_check ~prec:53 "fma" [| x; y; z |]
            (Float.fma x y z)
        with
        | None -> true
        | Some d -> QCheck.Test.fail_report d);
    (* the trig leg compares the shadow function with itself at twice
       the analysis precision, whatever the native result *)
    QCheck.Test.make ~name:"shadow sin/cos/tan pass precision doubling"
      ~count:100 arb_bits_float
      (fun x ->
        let prec = Core.Config.fast.Core.Config.precision in
        List.for_all
          (fun op ->
            match Fuzz.Oracle.kernel_check ~prec op [| x |] Float.nan with
            | None -> true
            | Some d -> QCheck.Test.fail_report d)
          [ "sin"; "cos"; "tan" ]);
    (* the same for the other correctly rounded libm calls the fuzzer
       emits, on raw bit patterns (most exp/pow arguments overflow to
       the same infinity at both precisions) and on [-8, 8] *)
    QCheck.Test.make ~name:"shadow libm kernels pass precision doubling"
      ~count:60
      QCheck.(
        pair arb_bits_float
          (pair (float_range (-8.0) 8.0) (float_range (-8.0) 8.0)))
      (fun (b, (x, y)) ->
        let prec = Core.Config.fast.Core.Config.precision in
        List.for_all
          (fun (op, _) ->
            List.for_all
              (fun args ->
                let args = Array.sub args 0 (if op = "pow" || op = "atan2" then 2 else 1) in
                match Fuzz.Oracle.kernel_check ~prec op args Float.nan with
                | None -> true
                | Some d -> QCheck.Test.fail_report d)
              [ [| b; y |]; [| x; y |]; [| Float.abs x; y |] ])
          (List.filter
             (fun (op, _) -> not (List.mem op [ "sin"; "cos"; "tan" ]))
             Fuzz.Oracle.libm_kernel));
  ]

(* ---------- pinned transcendental deviations ---------- *)

(* Transcendentals are NOT expected to agree bit-for-bit: libm is
   faithfully rounded, not correctly rounded, while Bigfloat_math is
   correctly rounded, so each pair below is a glibc rounding error (every
   Bigfloat value here passes the precision-doubling oracle). On this
   pinned input set the deviation is at most 1 ulp and confined to
   exactly the pairs below (see DESIGN.md). A new deviation or a >1-ulp
   one means a regression in Bigfloat_math (or a libm change worth
   knowing about). *)

let ulp_dist a b =
  let key f =
    let b = Int64.bits_of_float f in
    if Int64.compare b 0L >= 0 then b else Int64.sub Int64.min_int b
  in
  Int64.abs (Int64.sub (key a) (key b))

let pinned_inputs =
  [
    0.5; 1.0; 1.5; 2.0; -0.5; -1.5; 3.141592653589793; 10.0; 0.001; -0.001;
    0.7853981633974483; 100.0; 1e-8; 0.9999999999999999; 1.0000000000000002;
  ]

let transcendental_fns =
  let module M = Bignum.Bigfloat_math in
  [
    ("exp", Stdlib.exp, M.exp); ("log", Stdlib.log, M.log);
    ("sin", Stdlib.sin, M.sin); ("cos", Stdlib.cos, M.cos);
    ("tan", Stdlib.tan, M.tan); ("atan", Stdlib.atan, M.atan);
    ("asin", Stdlib.asin, M.asin); ("acos", Stdlib.acos, M.acos);
    ("sinh", Stdlib.sinh, M.sinh); ("cosh", Stdlib.cosh, M.cosh);
    ("tanh", Stdlib.tanh, M.tanh); ("expm1", Stdlib.expm1, M.expm1);
    ("log1p", Stdlib.log1p, M.log1p); ("cbrt", Float.cbrt, M.cbrt);
  ]

(* the known 1-ulp deviation set, by (function, input) *)
let expected_deviations =
  [
    ("sinh", 2.0); ("sinh", 3.141592653589793); ("sinh", 1e-8);
    ("cosh", 10.0); ("cosh", 1.0000000000000002);
    ("expm1", 1.0); ("expm1", 1.0000000000000002);
    ("log1p", 2.0);
    ("cbrt", 1.5); ("cbrt", 2.0); ("cbrt", -1.5); ("cbrt", 10.0);
    ("cbrt", 0.7853981633974483); ("cbrt", 100.0);
  ]

let transcendental_pinning () =
  let module B = Bignum.Bigfloat in
  let deviations = ref [] in
  List.iter
    (fun (name, native, big) ->
      List.iter
        (fun x ->
          let n = native x in
          if Float.is_finite n then begin
            let b = B.to_float (big ~prec:53 (B.of_float x)) in
            let d = ulp_dist n b in
            if Int64.compare d 1L > 0 then
              Alcotest.failf "%s(%h): native %h vs bigfloat %h is %Ld ulps"
                name x n b d;
            if d = 1L then deviations := (name, x) :: !deviations
          end)
        pinned_inputs)
    transcendental_fns;
  let got = List.sort compare !deviations in
  let want = List.sort compare expected_deviations in
  if got <> want then
    Alcotest.failf "deviation set changed; now: %s"
      (String.concat ", "
         (List.map (fun (n, x) -> Printf.sprintf "%s(%h)" n x) got))

(* ---------- corpus replay ---------- *)

(* every committed reproducer must keep passing: the corpus is the
   regression suite the fuzzer wrote for itself *)
let corpus_replay () =
  let dir = "corpus" in
  if Sys.file_exists dir then begin
    let results = Fuzz.Campaign.replay_dir dir in
    checkb "corpus is not empty" true (results <> []);
    List.iter
      (fun (file, r) ->
        match r with
        | Fuzz.Oracle.Pass -> ()
        | Fuzz.Oracle.Skip why -> Alcotest.failf "%s skipped: %s" file why
        | Fuzz.Oracle.Fail d ->
            Alcotest.failf "%s diverged: (%s) %s" file d.Fuzz.Oracle.d_oracle
              d.Fuzz.Oracle.d_detail)
      results
  end

(* reproducer files carry their inputs as hex bits; the parser must
   recover them bit-exactly *)
let repro_inputs_roundtrip () =
  let inputs = [| 0.1; -0.0; Float.infinity; 1.5e-321; 4.25 |] in
  let d = { Fuzz.Oracle.d_oracle = "machine"; d_detail = "x" } in
  let s =
    Fuzz.Campaign.repro_contents ~seed:1 ~index:2 ~d ~inputs
      "int main() { return 0; }"
  in
  let back = Fuzz.Campaign.inputs_of_source s in
  Alcotest.(check int) "arity" (Array.length inputs) (Array.length back);
  Array.iteri
    (fun i x ->
      Alcotest.(check int64) "bits" (Int64.bits_of_float x)
        (Int64.bits_of_float back.(i)))
    inputs

let () =
  Alcotest.run "fuzz"
    [
      ( "rng",
        [ Alcotest.test_case "determinism and splitting" `Quick rng_determinism ]
      );
      ( "generator",
        [
          Alcotest.test_case "well-typed by construction" `Quick
            generator_well_typed;
          Alcotest.test_case "print/parse round-trip" `Quick
            print_parse_roundtrip;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "seed determinism" `Quick seed_determinism;
          Alcotest.test_case "jobs independence" `Quick jobs_independence;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "sound on injected oracle bug" `Quick
            shrinker_soundness;
          Alcotest.test_case "cross-engine" `Quick shrinker_cross_engine;
          Alcotest.test_case "deterministic" `Quick shrinker_deterministic;
        ] );
      ( "kernel",
        (* seeded per-test so `dune runtest` is deterministic; set
           QCHECK_SEED to explore a different stream *)
        List.mapi
          (fun i t ->
            let base =
              try int_of_string (Sys.getenv "QCHECK_SEED") with _ -> 0x5eed
            in
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| base; i |])
              t)
          kernel_tests );
      ( "transcendentals",
        [
          Alcotest.test_case "pinned 1-ulp deviation set" `Quick
            transcendental_pinning;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replay committed reproducers" `Quick corpus_replay;
          Alcotest.test_case "inputs header round-trip" `Quick
            repro_inputs_roundtrip;
        ] );
    ]
