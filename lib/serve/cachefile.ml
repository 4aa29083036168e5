(* The cross-shard shared result cache: a single append-only JSONL file
   (the same record format as Fleet.Store, so `fpgrind validate` reads
   it directly) that every shard of a pre-forked server publishes fresh
   outcomes to and polls for its siblings' results.

   Write protocol: open O_APPEND, take an exclusive advisory lock
   (Unix.lockf over the whole file), write the record as one line, close
   (which releases the lock). The lock serializes concurrent appends
   across processes; O_APPEND makes the common case a single atomic
   write even without it.

   Read protocol: no lock. [refresh] tails the file from the last
   consumed offset and indexes every *complete* line (ending in '\n') by
   its content-hash key. A torn trailing line — a shard SIGKILLed
   mid-write — is left unconsumed until more bytes arrive; if a later
   append runs into it the merged line fails to parse and is skipped,
   counted in [torn]. Losing the victim's one record is the contract:
   a killed shard loses at most its in-flight work. *)

type t = {
  path : string;
  mu : Mutex.t;
  tbl : (string, Fleet.outcome) Hashtbl.t;
  mutable off : int;  (* first byte of the file not yet consumed *)
  mutable torn : int;  (* unparseable complete lines skipped *)
}

let create (path : string) : t =
  {
    path;
    mu = Mutex.create ();
    tbl = Hashtbl.create 97;
    off = 0;
    torn = 0;
  }

(* Consume complete lines appended since the last refresh. Caller holds
   [t.mu]. *)
let refresh_locked (t : t) : unit =
  match Unix.openfile t.path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()  (* not created yet *)
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          if size > t.off then begin
            ignore (Unix.lseek fd t.off Unix.SEEK_SET);
            let n = size - t.off in
            let buf = Bytes.create n in
            let got = ref 0 in
            (try
               while !got < n do
                 let k = Unix.read fd buf !got (n - !got) in
                 if k = 0 then raise Exit else got := !got + k
               done
             with Exit -> ());
            let s = Bytes.sub_string buf 0 !got in
            (* consume only up to the last newline; a torn tail waits *)
            match String.rindex_opt s '\n' with
            | None -> ()
            | Some last ->
                String.split_on_char '\n' (String.sub s 0 last)
                |> List.iter (fun line ->
                       if String.trim line <> "" then
                         match Json.of_string line with
                         | j -> (
                             let o = Fleet.Store.outcome_of_json j in
                             match o.Fleet.o_status with
                             | (Fleet.Done | Fleet.Cached)
                               when o.Fleet.o_key <> "" ->
                                 Hashtbl.replace t.tbl o.Fleet.o_key o
                             | _ -> ())
                         | exception _ -> t.torn <- t.torn + 1);
                t.off <- t.off + last + 1
          end)

let lookup (t : t) (key : string) : Fleet.outcome option =
  if key = "" then None
  else begin
    Mutex.lock t.mu;
    let o =
      match Hashtbl.find_opt t.tbl key with
      | Some _ as hit -> hit
      | None ->
          refresh_locked t;
          Hashtbl.find_opt t.tbl key
    in
    Mutex.unlock t.mu;
    o
  end

(* Publish a fresh outcome for the other shards. Only completed results
   with a content-hash key are worth sharing (and only those keep the
   file `fpgrind validate`-clean). *)
let publish (t : t) (o : Fleet.outcome) : unit =
  match o.Fleet.o_status with
  | Fleet.Done when o.Fleet.o_key <> "" ->
      let line =
        Json.to_string (Fleet.Store.outcome_to_json o) ^ "\n"
      in
      let fd =
        Unix.openfile t.path
          [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
          0o644
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
          let n = String.length line in
          let sent = ref 0 in
          while !sent < n do
            sent := !sent + Unix.write_substring fd line !sent (n - !sent)
          done);
      Mutex.lock t.mu;
      Hashtbl.replace t.tbl o.Fleet.o_key o;
      Mutex.unlock t.mu
  | _ -> ()

let torn_total (t : t) : int =
  Mutex.lock t.mu;
  let n = t.torn in
  Mutex.unlock t.mu;
  n
