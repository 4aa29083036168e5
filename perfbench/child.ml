(* Run a function in a forked copy of this process and return its result.

   A set-up pass run in a child starts from this process's state before
   any pass ran: empty compile cache, empty per-domain libm memo, fresh
   heap — exactly as cold as a new `fpgrind suite` invocation. OCaml 5
   forbids fork while a second domain runs; passes join their domain
   before returning, so callers may fork between passes. *)

let run (f : unit -> 'a) : 'a =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let v : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc v [];
      close_out oc;
      (* skip at_exit: the parent owns stdout and the span file *)
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v : ('a, string) result option =
        try Some (Marshal.from_channel ic) with End_of_file -> None
      in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      match (v, status) with
      | Some (Ok x), Unix.WEXITED 0 -> x
      | Some (Error msg), _ -> failwith ("child pass raised: " ^ msg)
      | _ -> failwith "child pass died without a result")
