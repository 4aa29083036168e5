(* Regenerates pinned records in test/data:

     dune exec test/regen_pins.exe -- test/data           # every target
     dune exec test/regen_pins.exe -- test/data compile   # suite pins
     dune exec test/regen_pins.exe -- test/data regime    # regime sweep

   [compile] writes the compiled-executor suite pins, one file per
   engine. Canonical form must match test_compile.ml exactly: the
   Store's JSON with "wall_s", "stmts_executed" and "traces_materialized"
   scrubbed. A suite extension may only *append/insert* records, never
   change existing ones.

   [regime] writes regime_seed42.jsonl: [Regime.to_json] of every
   straight-line benchmark at the official configuration and seed 42,
   the form test_regime.ml compares against.

   Run from the repository root; diff the result before committing. *)

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

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  Printf.printf "%s: %d records\n%!" path (List.length lines)

let compile dir =
  List.iter
    (fun (tag, engine) ->
      let cfg = { Core.Config.default with Core.Config.engine } in
      let jobs = Fpcore.Suite.enumerate ~iterations:16 ~seed:1 () in
      let specs = List.map (Fleet.bench_spec ~cfg) jobs in
      let outcomes = Fleet.run ~jobs:4 specs in
      write_lines
        (Filename.concat dir ("compile_suite_" ^ tag ^ ".jsonl"))
        (List.map canon outcomes))
    engines

let regime dir =
  Fpcore.Suite.all
  |> List.filter (fun b -> b.Fpcore.Suite.group = `Straight)
  |> List.map (fun b ->
         Json.to_string
           (Regime.to_json
              (Regime.infer ~points:Regime.official_points
                 ~depth:Regime.official_depth ~opts:Regime.official_options
                 ~seed:42 b)))
  |> write_lines (Filename.concat dir "regime_seed42.jsonl")

let targets = [ ("compile", compile); ("regime", regime) ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/data" in
  let wanted =
    if Array.length Sys.argv > 2 then
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    else List.map fst targets
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some run -> run dir
      | None ->
          Printf.eprintf "regen_pins: unknown target %s (compile, regime)\n"
            name;
          exit 2)
    wanted
