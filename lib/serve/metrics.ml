(* fpgrind.serve metrics: counters, gauges, and histograms with
   Prometheus text-format rendering. Dependency-free, like the rest of
   the subsystem: the exposition format is a few lines of printf, so a
   small faithful implementation beats a client-library package.

   A series is one of two kinds. An updated series ([counter],
   [histogram]) is changed by the code where its event happens —
   connection threads, request handlers — and render reads what it
   holds. A sampled series ([sampled]) holds nothing: it names a read
   of state another module already keeps (pool depth, a process-wide
   total, a file), and render calls that read on every scrape.

   Thread- and domain-safe: every update and the render pass take the
   registry mutex. Render calls the sampled reads before it takes the
   mutex, so a read may take locks of its own and never runs inside
   this one. *)

type kind = Counter | Gauge | Histogram of float array (* ascending bounds *)

type series = {
  mutable sr_value : float;  (* counter/gauge value; histogram sum *)
  mutable sr_count : float;  (* histogram observation count *)
  sr_buckets : float array;  (* per-bucket (non-cumulative) counts *)
}

type family = {
  fam_name : string;
  fam_help : string;
  fam_kind : kind;
  fam_labels : string list;  (* label names; [] for unlabeled metrics *)
  fam_series : (string list, series) Hashtbl.t;  (* keyed by label values *)
  fam_read : (unit -> float) option;  (* [Some] for sampled series *)
}

type t = { mu : Mutex.t; mutable fams : family list (* reverse order *) }

type counter = { c_reg : t; c_fam : family }
type histogram = { h_reg : t; h_fam : family }

let create () = { mu = Mutex.create (); fams = [] }

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       n
  && not (n.[0] >= '0' && n.[0] <= '9')

let register ?read reg ~name ~help ~labels kind : family =
  if not (valid_name name) then invalid_arg ("Metrics: bad metric name " ^ name);
  List.iter
    (fun l ->
      if not (valid_name l) then invalid_arg ("Metrics: bad label name " ^ l))
    labels;
  Mutex.lock reg.mu;
  if List.exists (fun f -> f.fam_name = name) reg.fams then begin
    Mutex.unlock reg.mu;
    invalid_arg ("Metrics: duplicate metric " ^ name)
  end;
  let fam =
    {
      fam_name = name;
      fam_help = help;
      fam_kind = kind;
      fam_labels = labels;
      fam_series = Hashtbl.create 7;
      fam_read = read;
    }
  in
  reg.fams <- fam :: reg.fams;
  Mutex.unlock reg.mu;
  fam

(* must hold the registry mutex *)
let series_of fam (label_values : string list) : series =
  match Hashtbl.find_opt fam.fam_series label_values with
  | Some s -> s
  | None ->
      if List.length label_values <> List.length fam.fam_labels then
        invalid_arg
          (Printf.sprintf "Metrics: %s expects %d label values, got %d"
             fam.fam_name
             (List.length fam.fam_labels)
             (List.length label_values));
      let nb =
        match fam.fam_kind with Histogram b -> Array.length b | _ -> 0
      in
      let s = { sr_value = 0.0; sr_count = 0.0; sr_buckets = Array.make nb 0.0 } in
      Hashtbl.replace fam.fam_series label_values s;
      s

(* ---------- the three metric types ---------- *)

let counter reg ?(labels = []) ~help name : counter =
  let c = { c_reg = reg; c_fam = register reg ~name ~help ~labels Counter } in
  (* unlabeled counters render as 0 from the start, so a scrape sees
     every metric the server exports even before the first event *)
  if labels = [] then begin
    Mutex.lock reg.mu;
    ignore (series_of c.c_fam []);
    Mutex.unlock reg.mu
  end;
  c

let inc ?(by = 1.0) (c : counter) (label_values : string list) =
  if by < 0.0 then invalid_arg "Metrics.inc: counters only go up";
  Mutex.lock c.c_reg.mu;
  let s = series_of c.c_fam label_values in
  s.sr_value <- s.sr_value +. by;
  Mutex.unlock c.c_reg.mu

(* A sampled counter must read a monotone total. *)
let sampled reg kind ~help name (read : unit -> float) =
  let kind = match kind with `Counter -> Counter | `Gauge -> Gauge in
  ignore (register ~read reg ~name ~help ~labels:[] kind)

let default_buckets =
  [| 0.001; 0.005; 0.01; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 30.0 |]

let histogram reg ?(labels = []) ?(buckets = default_buckets) ~help name :
    histogram =
  let b = Array.copy buckets in
  Array.sort compare b;
  { h_reg = reg; h_fam = register reg ~name ~help ~labels (Histogram b) }

let observe (h : histogram) ?(labels = []) v =
  Mutex.lock h.h_reg.mu;
  let s = series_of h.h_fam labels in
  s.sr_count <- s.sr_count +. 1.0;
  s.sr_value <- s.sr_value +. v;
  (match h.h_fam.fam_kind with
  | Histogram bounds ->
      (* count lands in the first bucket whose bound covers it; render
         accumulates into the cumulative form Prometheus expects *)
      let rec place i =
        if i < Array.length bounds then
          if v <= bounds.(i) then s.sr_buckets.(i) <- s.sr_buckets.(i) +. 1.0
          else place (i + 1)
      in
      place 0
  | _ -> ());
  Mutex.unlock h.h_reg.mu

(* ---------- rendering ---------- *)

let fmt_num f =
  if Float.is_integer f && Float.abs f < 9.007199254740992e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help h =
  String.concat "\\n" (String.split_on_char '\n' h)

let label_string names values =
  if names = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map2
           (fun n v -> Printf.sprintf "%s=\"%s\"" n (escape_label_value v))
           names values)
    ^ "}"

(* like [label_string] but with an extra le="..." pair for buckets *)
let bucket_label_string names values le =
  let pairs =
    List.map2
      (fun n v -> Printf.sprintf "%s=\"%s\"" n (escape_label_value v))
      names values
    @ [ Printf.sprintf "le=\"%s\"" le ]
  in
  "{" ^ String.concat "," pairs ^ "}"

let render (reg : t) : string =
  Mutex.lock reg.mu;
  let fams = List.rev reg.fams in
  Mutex.unlock reg.mu;
  let reads =
    List.map (fun fam -> Option.map (fun read -> read ()) fam.fam_read) fams
  in
  let buf = Buffer.create 1024 in
  Mutex.lock reg.mu;
  List.iter2
    (fun fam read ->
      let kind_name =
        match fam.fam_kind with
        | Counter -> "counter"
        | Gauge -> "gauge"
        | Histogram _ -> "histogram"
      in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" fam.fam_name (escape_help fam.fam_help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" fam.fam_name kind_name);
      let rows =
        match read with
        | Some v -> [ ([], { sr_value = v; sr_count = 0.0; sr_buckets = [||] }) ]
        | None ->
            Hashtbl.fold (fun lv s acc -> (lv, s) :: acc) fam.fam_series []
            |> List.sort compare
      in
      List.iter
        (fun (lv, s) ->
          match fam.fam_kind with
          | Counter | Gauge ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" fam.fam_name
                   (label_string fam.fam_labels lv)
                   (fmt_num s.sr_value))
          | Histogram bounds ->
              let cumulative = ref 0.0 in
              Array.iteri
                (fun i bound ->
                  cumulative := !cumulative +. s.sr_buckets.(i);
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %s\n" fam.fam_name
                       (bucket_label_string fam.fam_labels lv
                          (Printf.sprintf "%g" bound))
                       (fmt_num !cumulative)))
                bounds;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %s\n" fam.fam_name
                   (bucket_label_string fam.fam_labels lv "+Inf")
                   (fmt_num s.sr_count));
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" fam.fam_name
                   (label_string fam.fam_labels lv)
                   (fmt_num s.sr_value));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %s\n" fam.fam_name
                   (label_string fam.fam_labels lv)
                   (fmt_num s.sr_count)))
        rows)
    fams reads;
  Mutex.unlock reg.mu;
  Buffer.contents buf
