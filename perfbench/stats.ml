(* Clocks and order statistics over measured samples. *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks (the default of R and
   NumPy), so a percentile moves smoothly with the samples instead of
   jumping between them. *)
let quantile (xs : float array) (p : float) : float =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* hits / (hits + misses), 0 when there were neither *)
let hit_ratio hits misses =
  if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0

(* A /proc/PID/status memory field of a live process, in MiB: "VmHWM"
   is the peak resident set, "VmRSS" the current one. *)
let status_mb ?(pid = "self") field : float =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match Scanf.sscanf_opt (input_line ic) "%s@: %d kB" (fun k v -> (k, v)) with
        | Some (k, kb) when k = field -> float_of_int kb /. 1024.0
        | _ -> find ()
      in
      find ())

(* "n=.. p50=.. p90=.. p99=.. max=.." over latencies in seconds, in ms *)
let latency_note (xs : float array) : string =
  let ms p = 1000.0 *. quantile xs p in
  Printf.sprintf "latency_ms n=%d p50=%.4f p90=%.4f p99=%.4f max=%.4f"
    (Array.length xs) (ms 0.5) (ms 0.9) (ms 0.99) (ms 1.0)
