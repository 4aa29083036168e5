(* The quick check `dune runtest` runs: every workload at minimal size,
   untraced and traced, each in its own process, through the same
   command-line interface as a full run. Each run must exit 0 with a
   correct result whose last line names exactly the metrics
   BENCHMARK.json declares for its mode; every declared per-layer metric
   must be measured by some workload; and a run against a tampered pin
   must fail. *)

let run_capture (args : string array) : Unix.process_status * string list =
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  (Unix.close_process_in ic, lines)

let last = function [] -> "" | l -> List.nth l (List.length l - 1)

(* change the first digit of a pin line *)
let tamper (l : string) : string =
  let b = Bytes.of_string l in
  let is_digit i = l.[i] >= '0' && l.[i] <= '9' in
  (match Seq.find is_digit (Seq.init (String.length l) Fun.id) with
  | Some i ->
      Bytes.set b i (if l.[i] = '9' then '0' else Char.chr (Char.code l.[i] + 1))
  | None -> ());
  Bytes.to_string b

let run ~root ~workloads : int =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let measured = Hashtbl.create 64 in
  let out = "selftest-out" in
  let args ~workload ~trace extra =
    Array.append
      [|
        Sys.executable_name; "--workload"; workload; "--seed"; "3";
        "--seconds"; "1"; "--quick"; "--trace"; (if trace then "1" else "0");
        "--root"; root; "--out"; out;
      |]
      extra
  in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let status, lines = run_capture (args ~workload ~trace [||]) in
          let label = Printf.sprintf "%s trace=%b" workload trace in
          (match lines |> List.find_opt (String.starts_with ~prefix:"measured: ") with
          | Some l ->
              List.iter
                (fun n -> Hashtbl.replace measured n ())
                (String.split_on_char ' ' (String.sub l 10 (String.length l - 10)))
          | None -> ());
          match (status, Json.of_string (last lines)) with
          | Unix.WEXITED 0, j ->
              let names =
                match Json.member "metrics" j with
                | Some (Json.Obj kvs) -> List.map fst kvs
                | _ -> []
              in
              if Json.member "correct" j <> Some (Json.Bool true) then
                fail "%s: not correct" label;
              if Json.get_int "attempted" j < 1 then fail "%s: nothing attempted" label;
              if Json.get_int "failed" j <> 0 then fail "%s: failures" label;
              if names <> List.map fst (Opts.declared ~root ~trace) then
                fail "%s: metric names differ from BENCHMARK.json" label;
              Printf.printf "ok %s: %d metrics\n%!" label (List.length names)
          | _, _ -> fail "%s: exited nonzero" label
          | exception Json.Parse_error _ -> fail "%s: last line is not JSON" label)
        [ false; true ])
    workloads;
  if Sys.file_exists out then begin
    Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
    Sys.rmdir out
  end;
  List.iter
    (fun n ->
      if not (Hashtbl.mem measured n) then
        fail "per-layer metric %s: no workload measures it" n)
    (List.map fst (Opts.declared ~root ~trace:true));
  (* the negative case: one flipped character in one pin *)
  let dir = "selftest-tampered-pins" in
  let pin = "compile_suite_tiered.jsonl" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let lines = Pins.read_lines (Filename.concat root ("test/data/" ^ pin)) in
  let oc = open_out (Filename.concat dir pin) in
  List.iteri
    (fun i l ->
      output_string oc (if i = 0 then tamper l else l);
      output_char oc '\n')
    lines;
  close_out oc;
  let status, _ =
    run_capture (args ~workload:"tiered-suite" ~trace:false [| "--pins"; dir |])
  in
  Sys.remove (Filename.concat dir pin);
  Sys.rmdir dir;
  if status = Unix.WEXITED 0 then fail "a tampered pin went unnoticed"
  else print_endline "ok tampered pin rejected";
  match !problems with
  | [] -> 0
  | ps ->
      List.iter (fun p -> Printf.printf "SELFTEST FAILED: %s\n" p) (List.rev ps);
      1
