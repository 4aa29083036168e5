(* In-memory spans for the traced run.

   The benchmark wraps each call into a layer's public functions in a
   span: name, start, end, the enclosing span, and the job (program and
   pass) it belongs to. Spans stay in memory and are written out once,
   when the run ends. A side span times extra work done only to attribute
   cost (re-running one stage of a call that cannot be split from
   outside); its time is excluded from the pass it interrupts. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* -1 at top level *)
  job : string;
  pass : int;
  side : bool;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list;
  mutable job : string;
  mutable pass : int;
  mutable side_s : float;  (* total time in side spans *)
  counts : (string, float) Hashtbl.t;
}

let create () =
  {
    spans = [];
    next = 0;
    stack = [];
    job = "";
    pass = 0;
    side_s = 0.0;
    counts = Hashtbl.create 16;
  }

let span ?(side = false) t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = Stats.now () in
  let close () =
    let stop = Stats.now () in
    t.stack <- List.tl t.stack;
    if side then t.side_s <- t.side_s +. (stop -. start);
    t.spans <-
      { id; name; start; stop; parent; job = t.job; pass = t.pass; side }
      :: t.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* a top-level span measured by the caller *)
let record t ~name ~job ~start ~stop =
  t.spans <-
    { id = t.next; name; start; stop; parent = -1; job; pass = t.pass; side = false }
    :: t.spans;
  t.next <- t.next + 1

let count t name n =
  let v = Option.value ~default:0.0 (Hashtbl.find_opt t.counts name) in
  Hashtbl.replace t.counts name (v +. n)

(* Self time per span name: each span's duration minus the part its
   direct children cover. Side spans are reported under their own names;
   callers keep them out of pass totals. *)
let self_times (t : t) : (string * float * bool) list =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let c = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (c +. (s.stop -. s.start)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let v, _ =
        Option.value ~default:(0.0, s.side) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (v +. self, s.side))
    t.spans;
  Hashtbl.fold (fun name (v, side) acc -> (name, v, side) :: acc) by_name []
  |> List.sort compare

let write (t : t) (path : string) =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Num (float_of_int s.id));
                ("name", Json.Str s.name);
                ("start", Json.Num s.start);
                ("end", Json.Num s.stop);
                ("parent", Json.Num (float_of_int s.parent));
                ("job", Json.Str s.job);
                ("pass", Json.Num (float_of_int s.pass));
                ("side", Json.Bool s.side);
              ]));
      output_char oc '\n')
    (List.rev t.spans);
  close_out oc
