(* Per-operation cost of the two shadow arithmetics, in ns/op, estimated
   by bechamel's OLS fit over growing batches.

   Bignum operands carry full 1000-bit mantissas (quotients of two
   doubles), the precision the full engine shadows at; a 53-bit operand
   would make every operation look cheaper than it is in a real run.
   Operands come from the run's seed. *)

open Bechamel

let prec = Core.Config.default.Core.Config.precision

let tests ~seed : (string * (unit -> unit)) list =
  let rng = Random.State.make [| seed |] in
  let u () = 0.5 +. Random.State.float rng 1.0 in
  let module B = Bignum.Bigfloat in
  let module M = Bignum.Bigfloat_math in
  let module D = Sanitize.Twofloat in
  let big () = B.div ~prec (B.of_float (u ())) (B.of_float (u ())) in
  let dd () = D.div (D.of_float (u ())) (D.of_float (u ())) in
  let a = big () and b = big () in
  let x = dd () and y = dd () and z = dd () in
  [
    ("bignum.add_ns", fun () -> ignore (B.add ~prec a b));
    ("bignum.mul_ns", fun () -> ignore (B.mul ~prec a b));
    ("bignum.div_ns", fun () -> ignore (B.div ~prec a b));
    ("bignum.sqrt_ns", fun () -> ignore (B.sqrt ~prec a));
    ("bignum.exp_ns", fun () -> ignore (M.exp ~prec a));
    ("bignum.log_ns", fun () -> ignore (M.log ~prec a));
    ("bignum.sin_ns", fun () -> ignore (M.sin ~prec a));
    ("twofloat.add_ns", fun () -> ignore (D.add x y));
    ("twofloat.mul_ns", fun () -> ignore (D.mul x y));
    ("twofloat.div_ns", fun () -> ignore (D.div x y));
    ("twofloat.sqrt_ns", fun () -> ignore (D.sqrt x));
    ("twofloat.fma_ns", fun () -> ignore (D.fma x y z));
  ]

let metrics ~quick ~seed : (string * float) list =
  (* a compacted heap, so the allocation these operations do costs the
     same whatever ran before *)
  Gc.compact ();
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~stabilize:false
      ~quota:(Time.second (if quick then 0.02 else 0.15))
      ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun (name, f) ->
      let raw = Benchmark.all cfg [ clock ] (Test.make ~name (Staged.stage f)) in
      let est =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
          (Analyze.all ols clock raw) nan
      in
      (name, est))
    (tests ~seed)
