(* The regime-sweep workload: regime inference over the 72 straight-line
   benchmarks at the official configuration (96 points, depth 4,
   penalty 0.05). It is the only workload in the rewrite and regime
   layers and in 256-bit FPCore evaluation, and it never enters the VEX
   executors. Set-up sweeps seed 42, whose per-benchmark selections are
   pinned in pins/regime_seed42.txt (BENCH_8's split: 4 branched, 30
   single, 38 original, 0 unsound); each timed pass sweeps a fresh seed. *)

let points = Regime.official_points
let depth = Regime.official_depth

type input = { bench : Fpcore.Suite.bench; seed : int }
type result = (Regime.report * string, string) Stdlib.result

let infer x =
  Regime.infer ~points ~depth ~opts:Regime.official_options ~seed:x.seed x.bench

let run x : result =
  match infer x with
  | r -> Ok (r, Json.to_string (Regime.to_json r))
  | exception e -> Error (Printexc.to_string e)

(* Side calls re-run two stages of [Regime.infer] on the same search
   context, each in a fresh domain: within [infer] they run before any
   evaluation has filled this domain's libm memo for these points. *)
let traced sp x : result =
  sp.Spans.job <- x.bench.Fpcore.Suite.name;
  match Spans.span sp "regime.infer" (fun () -> infer x) with
  | exception e -> Error (Printexc.to_string e)
  | r ->
      let line =
        Spans.span sp "json.encode" (fun () -> Json.to_string (Regime.to_json r))
      in
      let e0 = (Fpcore.Suite.core_of x.bench).Fpcore.Ast.body in
      let ctx = Regime.Sampler.context ~seed:x.seed ~n:points x.bench in
      let side name f =
        ignore (Spans.span ~side:true sp name (fun () -> Batch.in_fresh_domain f))
      in
      side "rewrite.candidates" (fun () ->
          ignore (Rewrite.Improve.improve_candidates ~depth e0 ctx));
      side "regime.localize" (fun () -> ignore (Regime.Localize.local_errors e0 ctx));
      Spans.count sp "regime.search_points" (float_of_int r.Regime.re_search_points);
      Spans.count sp "regime.unsound"
        (if r.Regime.re_soundness.Rewrite.Soundness.r_sound then 0.0 else 1.0);
      Spans.count sp "json.bytes" (float_of_int (String.length line));
      Ok (r, line)

let canon : result -> string = function
  | Ok (_, line) -> line
  | Error msg -> "error: " ^ msg

(* "name selected regimes sound|unsound", the form of the pin file *)
let summary_line (record : string) : string =
  match Json.of_string record with
  | exception Json.Parse_error _ -> record
  | j ->
      Printf.sprintf "%s %s %d %s" (Json.get_str "name" j)
        (Json.get_str "selected" j) (Json.get_int "regimes" j)
        (if Json.member "sound" j = Some (Json.Bool true) then "sound"
         else "unsound")

let check (o : Opts.t) (records : string array) : string list =
  let file = Filename.concat o.Opts.root "perfbench/pins/regime_seed42.txt" in
  let want = Hashtbl.create 97 in
  List.iter
    (fun l -> Hashtbl.replace want (List.hd (String.split_on_char ' ' l)) l)
    (Pins.read_lines file);
  let got = Array.map summary_line records in
  let per_bench =
    Array.to_list got
    |> List.filter_map (fun l ->
           let name = List.hd (String.split_on_char ' ' l) in
           if Hashtbl.find_opt want name = Some l then None
           else Some (Printf.sprintf "regime %s: got %S, pinned in %s" name l file))
  in
  let split =
    let count f = Array.fold_left (fun n l -> if f l then n + 1 else n) 0 got in
    let has w l = List.mem w (String.split_on_char ' ' l) in
    ( count (has "branched"),
      count (has "single"),
      count (has "original"),
      count (has "unsound") )
  in
  per_bench
  @
  if o.Opts.quick || split = (4, 30, 38, 0) then []
  else
    let b, s, orig, u = split in
    [
      Printf.sprintf
        "regime split %d branched, %d single, %d original, %d unsound; BENCH_8 \
         has 4, 30, 38, 0"
        b s orig u;
    ]

let benches ~quick =
  let sl =
    List.filter (fun b -> b.Fpcore.Suite.group = `Straight) Fpcore.Suite.all
  in
  if quick then List.filteri (fun i _ -> i < 3) sl else sl

let workload : (input, result) Batch.t =
  let sweep ~quick ~seed =
    Array.of_list (List.map (fun bench -> { bench; seed }) (benches ~quick))
  in
  {
    Batch.pinned = (fun ~quick -> sweep ~quick ~seed:42);
    fresh = sweep;
    run;
    traced;
    canon;
    failed = Result.is_error;
    check;
  }
