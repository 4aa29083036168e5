(* Canonical records and the pins they are checked against.

   A record's canonical form is the store's JSON with the clock
   ("wall_s") and the compiled executor's additive fields scrubbed —
   the form test/test_compile.ml pins in test/data. *)

let rec scrub ~drop (j : Json.t) : Json.t =
  match j with
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k drop then None else Some (k, scrub ~drop v))
           kvs)
  | Json.Arr xs -> Json.Arr (List.map (scrub ~drop) xs)
  | x -> x

let canon_json (j : Json.t) : string =
  Json.to_string
    (scrub ~drop:[ "wall_s"; "stmts_executed"; "traces_materialized" ] j)

let canon (o : Fleet.outcome) : string = canon_json (Fleet.Store.outcome_to_json o)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let digest_lines (records : string array) : string =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Buffer.add_string b r;
      Buffer.add_char b '\n')
    records;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Suite records, matched to the pin of the same benchmark name. *)
let check_suite ~file (records : string array) : string list =
  let want = Hashtbl.create 97 in
  List.iter
    (fun line -> Hashtbl.replace want (Json.get_str "name" (Json.of_string line)) line)
    (read_lines file);
  Array.to_list records
  |> List.filter_map (fun r ->
         let name = Json.get_str "name" (Json.of_string r) in
         match Hashtbl.find_opt want name with
         | Some w when w = r -> None
         | Some _ -> Some (Printf.sprintf "%s: record differs from %s" name file)
         | None -> Some (Printf.sprintf "%s: no pin in %s" name file))

(* Fuzz records, by index: the digest of the canonical record must equal
   the "sanitize:" digest on the program's line of the pin file. *)
let check_fuzz ~file (records : string array) : string list =
  let want = Array.of_list (read_lines file) in
  Array.to_list
    (Array.mapi
       (fun i r ->
         let got = "sanitize:" ^ Digest.to_hex (Digest.string r) in
         if i < Array.length want
            && List.mem got (String.split_on_char ' ' want.(i))
         then None
         else Some (Printf.sprintf "fuzz-%04d: digest differs from %s" i file))
       records)
  |> List.filter_map Fun.id
