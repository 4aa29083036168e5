(* perfbench: fpgrind's performance benchmark. One workload per process:

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--quick] [--root DIR] [--pins DIR] [--out DIR]
     main.exe --selftest [--root DIR]

   Untraced runs print every end-to-end metric BENCHMARK.json names,
   traced runs every per-layer one, each as "metric NAME VALUE UNIT"; the
   last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. A failed check exits 1. *)

let workloads : (string * (Opts.t -> Opts.result)) list =
  [
    ("full-suite", Batch.execute Suites.full);
    ("tiered-suite", Batch.execute Suites.tiered);
    ("fuzz-sanitize", Batch.execute Fuzzw.workload);
    ("regime-sweep", Batch.execute Regimew.workload);
    ("serve-cold", Servew.execute ~warm:false);
    ("serve-warm", Servew.execute ~warm:true);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--quick] [--root DIR] [--pins DIR] [--out DIR]\n\
    \       main.exe --selftest [--root DIR]";
  exit 2

let parse_args argv : [ `Run of Opts.t | `Selftest of string ] =
  let workload = ref "" and seed = ref 1 and seconds = ref 12.0 in
  let trace = ref false and quick = ref false and selftest = ref false in
  let root = ref "." and pins = ref "" and out = ref "" in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; go rest
    | "--selftest" :: rest -> selftest := true; go rest
    | flag :: v :: rest ->
        (match (flag, v) with
        | "--workload", v -> workload := v
        | "--seed", v -> seed := int_of_string v
        | "--seconds", v -> seconds := float_of_string v
        | "--trace", ("0" | "1") -> trace := v = "1"
        | "--root", v -> root := v
        | "--pins", v -> pins := v
        | "--out", v -> out := v
        | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  if !selftest then `Selftest !root
  else begin
    if not (List.mem_assoc !workload workloads) then begin
      Printf.eprintf "unknown workload %S; one of: %s\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
    end;
    if !seed < 0 || !seconds <= 0.0 then usage ();
    let or_default r d = if !r = "" then d else !r in
    `Run
      {
        Opts.workload = !workload;
        seed = !seed;
        seconds = !seconds;
        trace = !trace;
        quick = !quick;
        root = !root;
        pins = or_default pins (Filename.concat !root "test/data");
        out = or_default out (Filename.concat !root "_perfbench");
      }
  end

let run (o : Opts.t) =
  let metrics = Opts.declared ~root:o.Opts.root ~trace:o.Opts.trace in
  Printf.printf
    "perfbench %s seed=%d seconds=%g trace=%b quick=%b nproc=%d ocaml=%s\n%!"
    o.Opts.workload o.Opts.seed o.Opts.seconds o.Opts.trace o.Opts.quick
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let r = (List.assoc o.Opts.workload workloads) o in
  List.iter print_endline r.Opts.notes;
  let undeclared =
    List.filter (fun (n, _) -> not (List.mem_assoc n metrics)) r.Opts.values
  in
  let bad_values =
    List.filter (fun (_, v) -> not (Float.is_finite v)) r.Opts.values
  in
  (* every end-to-end metric must be measured; a per-layer metric whose
     layer this workload never enters reads 0 *)
  let missing =
    if o.Opts.trace then []
    else List.filter (fun (n, _) -> not (List.mem_assoc n r.Opts.values)) metrics
  in
  let problems =
    r.Opts.problems
    @ List.map (fun (n, _) -> "metric not in BENCHMARK.json: " ^ n) undeclared
    @ List.map (fun (n, _) -> "metric not measured: " ^ n) missing
    @ List.map (fun (n, _) -> "metric is not a finite number: " ^ n) bad_values
  in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  Printf.printf "measured: %s\n" (String.concat " " (List.map fst r.Opts.values));
  let value n = Option.value ~default:0.0 (List.assoc_opt n r.Opts.values) in
  List.iter
    (fun (n, unit) -> Printf.printf "metric %s %.6g %s\n" n (value n) unit)
    metrics;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (problems = []));
            ("attempted", Json.Num (float_of_int r.Opts.attempted));
            ("failed", Json.Num (float_of_int r.Opts.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, unit) ->
                     ( n,
                       Json.Obj
                         [ ("value", Json.Num (value n)); ("unit", Json.Str unit) ] ))
                   metrics) );
          ]));
  exit (if problems = [] then 0 else 1)

let () =
  match parse_args Sys.argv with
  | `Run o -> run o
  | `Selftest root -> exit (Selftest.run ~root ~workloads:(List.map fst workloads))
