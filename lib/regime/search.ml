(* The regime search: given K candidate expressions scored per point,
   partition the sampled input space along single-variable thresholds so
   each segment runs its locally-best candidate — Herbie's regime
   inference, reconstructed over the improver's beam.

   For every variable the points are sorted by that variable's value and
   a dynamic program over the sorted order finds, for each branch count
   k ≤ max_regimes, the least-total-error segmentation (segment cost =
   the best single candidate's summed error bits over the segment;
   boundaries fall only between points with distinct values). Branching
   is charged an MDL-style penalty — [penalty_bits] per context point
   per extra regime — so a branch must buy at least that much *mean*
   accuracy to exist at all; with no such split the search returns
   [None] and the caller keeps the single best candidate. Everything is
   deterministic: ties prefer fewer regimes, then earlier variables,
   then lower candidate indices.

   Thresholds start as midpoints of the straddling sample values and are
   tightened by binary search ([refine]): each probe interpolates the
   split variable between the two straddling points, re-scores the two
   adjacent candidates on both probe assignments, and moves the bracket
   toward the winner flip — the sorted per-point best-candidate table
   only localizes the flip to a gap; the probes localize it inside. *)

type split = {
  s_var : string;
  s_thresholds : float list;  (* ascending; length = segments - 1 *)
  s_cands : int list;  (* candidate index per segment, low range first *)
  s_cost : float;  (* summed predicted error bits over the context *)
}

type options = {
  max_regimes : int;
  penalty_bits : float;  (* MDL charge per point per extra regime *)
  refine_iters : int;  (* binary-search probes per threshold *)
}

let default_options = { max_regimes = 3; penalty_bits = 0.5; refine_iters = 8 }

(* cost of covering every point with one candidate *)
let single_cost (errors : float array array) : float * int =
  let n = Array.length errors.(0) in
  let best = ref infinity and who = ref 0 in
  Array.iteri
    (fun c row ->
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. row.(j)
      done;
      if !s < !best then begin
        best := !s;
        who := c
      end)
    errors;
  (!best, !who)

let search ?(opts = default_options) ~(vars : (string * float array) list)
    ~(errors : float array array) () : split option =
  let k_cands = Array.length errors in
  if k_cands = 0 then None
  else begin
    let n = Array.length errors.(0) in
    let cost1, _ = single_cost errors in
    let penalty = opts.penalty_bits *. float_of_int n in
    let best : (float * int * split) option ref = ref None in
    (* (score, regime count, split); lower score wins, ties keep first *)
    List.iter
      (fun (var, xs) ->
        if Array.length xs = n && n >= 2 then begin
          let order = Array.init n (fun i -> i) in
          Array.sort
            (fun a b ->
              match compare xs.(a) xs.(b) with 0 -> compare a b | c -> c)
            order;
          (* prefix.(c).(i): candidate c's error summed over the first i
             sorted points *)
          let prefix =
            Array.init k_cands (fun c ->
                let p = Array.make (n + 1) 0.0 in
                for i = 0 to n - 1 do
                  p.(i + 1) <- p.(i) +. errors.(c).(order.(i))
                done;
                p)
          in
          let seg_cost a b =
            let best = ref infinity and who = ref 0 in
            for c = 0 to k_cands - 1 do
              let s = prefix.(c).(b) -. prefix.(c).(a) in
              if s < !best then begin
                best := s;
                who := c
              end
            done;
            (!best, !who)
          in
          let can_cut = Array.make (n + 1) false in
          for i = 1 to n - 1 do
            can_cut.(i) <- xs.(order.(i - 1)) < xs.(order.(i))
          done;
          (* dp.(k-1).(i): best cost covering sorted points [0, i) with k
             segments; choice.(k-1).(i): where the last segment starts *)
          let kmax = max 1 opts.max_regimes in
          let dp = Array.make_matrix kmax (n + 1) infinity in
          let choice = Array.make_matrix kmax (n + 1) 0 in
          for i = 1 to n do
            let c, w = seg_cost 0 i in
            dp.(0).(i) <- c;
            choice.(0).(i) <- w
          done;
          for k = 1 to kmax - 1 do
            for i = 1 to n do
              for b = 1 to i - 1 do
                if can_cut.(b) && dp.(k - 1).(b) < infinity then begin
                  let c, _ = seg_cost b i in
                  let total = dp.(k - 1).(b) +. c in
                  if total < dp.(k).(i) then begin
                    dp.(k).(i) <- total;
                    choice.(k).(i) <- b
                  end
                end
              done
            done
          done;
          for k = 2 to kmax do
            let cost = dp.(k - 1).(n) in
            let score = cost +. (penalty *. float_of_int (k - 1)) in
            if cost < infinity && score < cost1 then begin
              (* reconstruct segment boundaries right to left *)
              let bounds = ref [] and i = ref n in
              for kk = k - 1 downto 1 do
                let b = choice.(kk).(!i) in
                bounds := b :: !bounds;
                i := b
              done;
              let cuts = !bounds in
              let segs =
                let rec go a = function
                  | [] -> [ (a, n) ]
                  | b :: rest -> (a, b) :: go b rest
                in
                go 0 cuts
              in
              let cands = List.map (fun (a, b) -> snd (seg_cost a b)) segs in
              (* a cut between equal candidates buys nothing: drop it *)
              let rec dedup cs ts =
                match (cs, ts) with
                | a :: b :: rest, t :: trest ->
                    if a = b then dedup (a :: rest) trest
                    else
                      let cs', ts' = dedup (b :: rest) trest in
                      (a :: cs', t :: ts')
                | cs, ts -> (cs, ts)
              in
              let thresholds =
                List.map
                  (fun b ->
                    (xs.(order.(b - 1)) +. xs.(order.(b))) /. 2.0)
                  cuts
              in
              let cands, thresholds = dedup cands thresholds in
              if List.length cands >= 2 then begin
                let s =
                  {
                    s_var = var;
                    s_thresholds = thresholds;
                    s_cands = cands;
                    s_cost = cost;
                  }
                in
                let better =
                  match !best with
                  | None -> true
                  | Some (sc, bk, _) ->
                      score < sc || (score = sc && List.length cands < bk)
                in
                if better then best := Some (score, List.length cands, s)
              end
            end
          done
        end)
      vars;
    match !best with Some (_, _, s) -> Some s | None -> None
  end

(* Binary-search threshold refinement. [eval c pt] scores candidate [c]
   at assignment [pt] (error bits; None = domain exit, scored as the
   worst case 64). Returns the refined split and the number of probe
   evaluations spent. *)
let refine ?(opts = default_options) ~(points : Rewrite.Improve.sample list)
    ~(eval : int -> (string * float) list -> float option) (split : split) :
    split * int =
  let probes = ref 0 in
  let score c pt =
    incr probes;
    match eval c pt with Some e -> e | None -> 64.0
  in
  let value_of var pt = try List.assoc var pt with Not_found -> nan in
  let refined =
    List.mapi
      (fun i t ->
        let cl = List.nth split.s_cands i
        and cr = List.nth split.s_cands (i + 1) in
        (* the straddling sample points: nearest below and above t *)
        let below, above =
          List.fold_left
            (fun (lo, hi) pt ->
              let v = value_of split.s_var pt in
              let lo =
                if v <= t then
                  match lo with
                  | Some (lv, _) when lv >= v -> lo
                  | _ -> Some (v, pt)
                else lo
              in
              let hi =
                if v > t then
                  match hi with
                  | Some (hv, _) when hv <= v -> hi
                  | _ -> Some (v, pt)
                else hi
              in
              (lo, hi))
            (None, None) points
        in
        match (below, above) with
        | Some (lo, plo), Some (hi, phi) when lo < hi ->
            let lo = ref lo and hi = ref hi in
            for _ = 1 to opts.refine_iters do
              let m = (!lo +. !hi) /. 2.0 in
              if m > !lo && m < !hi then begin
                let at pt = (split.s_var, m) :: List.remove_assoc split.s_var pt in
                let el = score cl (at plo) +. score cl (at phi)
                and er = score cr (at plo) +. score cr (at phi) in
                if el <= er then lo := m else hi := m
              end
            done;
            (!lo +. !hi) /. 2.0
        | _ -> t)
      split.s_thresholds
  in
  ({ split with s_thresholds = refined }, !probes)
