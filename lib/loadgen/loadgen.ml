(* fpgrind.loadgen — the seeded open-loop load generator behind
   `fpgrind loadgen`.

   Open-loop means fixed arrival rate: request i is *due* at
   start + i/rate whether or not earlier requests have finished, and its
   latency is measured from that due time — so a server that stalls
   accumulates queueing delay in the percentiles instead of quietly
   slowing the generator down (the coordinated-omission trap of
   closed-loop "send, wait, send" drivers).

   The request stream is a pure function of (seed, index, mix): index i
   draws from Fuzz.Rng.make_indexed ~seed i — the same per-index
   SplitMix64 streams the fuzz and campaign subsystems use — to pick a
   mix kind and materialize the body, either `bench:NAME` over the
   straight-line suite or a fresh MiniC program from the fuzz generator.
   Same seed, same bodies, regardless of timing, concurrency, or which
   connection carries which request. Bench bodies repeat (and exercise
   the result cache); generated programs are unique (and exercise the
   analysis path).

   Workers are [lg_conns] threads, each holding one keep-alive
   connection ([Serve.Client.conn]) and pulling the next due index off a
   shared atomic counter; per-worker histograms and status counts merge
   after the join, so the hot path takes no locks. *)

module Hist = Hist

type kind = Bench | Minic

type config = {
  lg_host : string;
  lg_port : int;
  lg_rate : float;  (* target arrivals per second *)
  lg_duration : float;  (* seconds of offered load *)
  lg_conns : int;  (* concurrent keep-alive connections *)
  lg_seed : int;
  lg_mix : (int * kind) list;  (* integer weights, Rng.choose-shaped *)
  lg_engine : string;  (* engine query parameter *)
  lg_iterations : int;  (* sampled inputs per analysis *)
}

let default_config =
  {
    lg_host = "127.0.0.1";
    lg_port = 8080;
    lg_rate = 50.0;
    lg_duration = 5.0;
    lg_conns = 4;
    lg_seed = 42;
    lg_mix = [ (1, Bench); (1, Minic) ];
    lg_engine = "sanitize";
    lg_iterations = 8;
  }

let kind_name = function Bench -> "bench" | Minic -> "minic"

let mix_to_string (mix : (int * kind) list) : string =
  String.concat ","
    (List.map (fun (w, k) -> Printf.sprintf "%s=%d" (kind_name k) w) mix)

(* "bench=3,minic=1" — integer weights, unlisted kinds weigh 0 *)
let mix_of_string (s : string) : (int * kind) list =
  let parse_item item =
    let item = String.trim item in
    let name, w =
      match String.index_opt item '=' with
      | None -> (item, 1)
      | Some i -> (
          let n = String.sub item 0 i in
          let v = String.sub item (i + 1) (String.length item - i - 1) in
          match int_of_string_opt (String.trim v) with
          | Some w when w >= 0 -> (n, w)
          | _ -> failwith ("loadgen: bad mix weight in " ^ item))
    in
    match String.trim name with
    | "bench" -> (w, Bench)
    | "minic" -> (w, Minic)
    | other -> failwith ("loadgen: unknown mix kind " ^ other)
  in
  let mix =
    String.split_on_char ',' s
    |> List.filter (fun i -> String.trim i <> "")
    |> List.map parse_item
    |> List.filter (fun (w, _) -> w > 0)
  in
  if mix = [] then failwith "loadgen: empty request mix";
  mix

(* ---------- the deterministic request plan ---------- *)

type spec = {
  sp_index : int;
  sp_path : string;  (* /analyze?… with all parameters *)
  sp_body : string;
}

let bench_names =
  lazy
    (List.filter_map
       (fun (b : Fpcore.Suite.bench) ->
         match b.Fpcore.Suite.group with
         | `Straight -> Some b.Fpcore.Suite.name
         | `Loop -> None)
       Fpcore.Suite.all)

let spec_of_index (c : config) (i : int) : spec =
  let rng = Fuzz.Rng.make_indexed ~seed:c.lg_seed i in
  let enc = Serve.Http.percent_encode in
  let base =
    Printf.sprintf "/analyze?iterations=%d&seed=1&engine=%s" c.lg_iterations
      (enc c.lg_engine)
  in
  match Fuzz.Rng.choose rng c.lg_mix with
  | Bench ->
      let names = Lazy.force bench_names in
      let name = List.nth names (Fuzz.Rng.int rng (List.length names)) in
      { sp_index = i; sp_path = base; sp_body = "bench:" ^ name }
  | Minic ->
      let prog, inputs =
        Fuzz.Gen.program ~config:Fuzz.Gen.straightline rng
      in
      let path =
        Printf.sprintf "%s&name=lg-%d%s" base i
          (if Array.length inputs = 0 then ""
           else
             "&inputs="
             ^ enc
                 (String.concat ","
                    (Array.to_list inputs |> List.map (Printf.sprintf "%h"))))
      in
      { sp_index = i; sp_path = path; sp_body = Fuzz.Printer.program prog }

let plan (c : config) : spec array =
  let n = max 1 (int_of_float (Float.round (c.lg_rate *. c.lg_duration))) in
  Array.init n (spec_of_index c)

(* ---------- the report ---------- *)

type report = {
  r_requests : int;
  r_ok : int;  (* 2xx *)
  r_throttled : int;  (* 503 backpressure / rate limit *)
  r_errors_4xx : int;
  r_errors_5xx : int;  (* 5xx excluding 503 *)
  r_conn_errors : int;  (* transport failures after the retry *)
  r_elapsed_s : float;
  r_hist : Hist.t;  (* latency of every completed request, seconds *)
}

let throughput (r : report) : float =
  if r.r_elapsed_s <= 0.0 then 0.0
  else float_of_int r.r_ok /. r.r_elapsed_s

let to_json (c : config) (r : report) : Json.t =
  let num v = Json.Num v in
  let ms v = if Float.is_nan v then Json.Null else num (v *. 1000.0) in
  Json.Obj
    [
      ("seed", num (float_of_int c.lg_seed));
      ("rate", num c.lg_rate);
      ("duration_s", num c.lg_duration);
      ("conns", num (float_of_int c.lg_conns));
      ("mix", Json.Str (mix_to_string c.lg_mix));
      ("engine", Json.Str c.lg_engine);
      ("requests", num (float_of_int r.r_requests));
      ("ok", num (float_of_int r.r_ok));
      ("throttled_503", num (float_of_int r.r_throttled));
      ("errors_4xx", num (float_of_int r.r_errors_4xx));
      ("errors_5xx", num (float_of_int r.r_errors_5xx));
      ("conn_errors", num (float_of_int r.r_conn_errors));
      ("elapsed_s", num r.r_elapsed_s);
      ("throughput_rps", num (throughput r));
      ("latency_ms", Json.Obj [
        ("p50", ms (Hist.quantile r.r_hist 0.50));
        ("p90", ms (Hist.quantile r.r_hist 0.90));
        ("p99", ms (Hist.quantile r.r_hist 0.99));
        ("mean", ms (Hist.mean r.r_hist));
        ("max", ms (Hist.max_value r.r_hist));
      ]);
    ]

(* ---------- the open-loop driver ---------- *)

type worker_acc = {
  w_hist : Hist.t;
  mutable w_ok : int;
  mutable w_throttled : int;
  mutable w_4xx : int;
  mutable w_5xx : int;
  mutable w_conn : int;
}

let run (c : config) : report =
  let specs = plan c in
  let n = Array.length specs in
  let next = Atomic.make 0 in
  let start = Unix.gettimeofday () +. 0.05 in
  let fresh_acc () =
    {
      w_hist = Hist.create ();
      w_ok = 0;
      w_throttled = 0;
      w_4xx = 0;
      w_5xx = 0;
      w_conn = 0;
    }
  in
  let worker acc =
    let conn = Serve.Client.connect ~host:c.lg_host ~port:c.lg_port () in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let sp = specs.(i) in
        let due = start +. (float_of_int i /. c.lg_rate) in
        let now = Unix.gettimeofday () in
        if due > now then Thread.delay (due -. now);
        (match
           Serve.Client.request_conn conn ~meth:"POST" ~path:sp.sp_path
             ~body:sp.sp_body ()
         with
        | resp ->
            (* open-loop latency: from the scheduled arrival, so queueing
               behind a slow server is charged to the server *)
            Hist.record acc.w_hist (Unix.gettimeofday () -. due);
            let s = resp.Serve.Client.c_status in
            if s / 100 = 2 then acc.w_ok <- acc.w_ok + 1
            else if s = 503 then acc.w_throttled <- acc.w_throttled + 1
            else if s / 100 = 4 then acc.w_4xx <- acc.w_4xx + 1
            else acc.w_5xx <- acc.w_5xx + 1
        | exception _ ->
            acc.w_conn <- acc.w_conn + 1;
            Serve.Client.close conn);
        go ()
      end
    in
    go ();
    Serve.Client.close conn
  in
  let accs = List.init (max 1 c.lg_conns) (fun _ -> fresh_acc ()) in
  let threads = List.map (fun acc -> Thread.create worker acc) accs in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. start in
  let hist = Hist.create () in
  let total = List.fold_left in
  let sum f = total (fun a w -> a + f w) 0 accs in
  List.iter (fun w -> Hist.merge hist w.w_hist) accs;
  {
    r_requests = n;
    r_ok = sum (fun w -> w.w_ok);
    r_throttled = sum (fun w -> w.w_throttled);
    r_errors_4xx = sum (fun w -> w.w_4xx);
    r_errors_5xx = sum (fun w -> w.w_5xx);
    r_conn_errors = sum (fun w -> w.w_conn);
    r_elapsed_s = elapsed;
    r_hist = hist;
  }
