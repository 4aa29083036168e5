(* Regenerates the test/data compiled-executor suite pins after a
   deliberate suite extension:

     dune exec test/regen_pins.exe -- test/data

   Canonical form must match test_compile.ml exactly: the Store's JSON
   with "wall_s", "stmts_executed" and "traces_materialized" scrubbed.
   Run from the repository root; diff the result before committing —
   a suite extension may only *append/insert* records, never change
   existing ones. *)

let rec scrub (j : Json.t) : Json.t =
  match j with
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if
               k = "wall_s" || k = "stmts_executed"
               || k = "traces_materialized"
             then None
             else Some (k, scrub v))
           kvs)
  | Json.Arr xs -> Json.Arr (List.map scrub xs)
  | x -> x

let canon (o : Fleet.outcome) : string =
  Json.to_string (scrub (Fleet.Store.outcome_to_json o))

let engines =
  [
    ("full", Core.Config.Full);
    ("sanitize", Core.Config.Sanitize);
    ("tiered", Core.Config.Tiered);
  ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/data" in
  List.iter
    (fun (tag, engine) ->
      let cfg = { Core.Config.default with Core.Config.engine } in
      let jobs = Fpcore.Suite.enumerate ~iterations:16 ~seed:1 () in
      let specs = List.map (Fleet.bench_spec ~cfg) jobs in
      let outcomes = Fleet.run ~jobs:4 specs in
      let path = Filename.concat dir ("compile_suite_" ^ tag ^ ".jsonl") in
      let oc = open_out path in
      List.iter
        (fun o ->
          output_string oc (canon o);
          output_char oc '\n')
        outcomes;
      close_out oc;
      Printf.printf "%s: %d records\n%!" path (List.length outcomes))
    engines
