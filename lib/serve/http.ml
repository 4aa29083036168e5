(* fpgrind.serve HTTP: a hand-rolled HTTP/1.1 request parser and response
   writer over a pluggable byte source (same no-external-deps discipline
   as lib/fleet/json.ml). The reader abstraction exists so the parser is
   testable without a live socket: tests feed it strings, the server
   feeds it a file descriptor.

   Scope: exactly what the analysis service needs. HTTP/1.1 keep-alive
   with pipelined request reads ([session] serves a whole connection off
   one buffered reader, so a second request that arrived in the same TCP
   segment is parsed without touching the socket again), Content-Length
   bodies only — Transfer-Encoding is refused with 501 — and hard limits
   on line length, header count, body size, per-connection request count
   and idle time so a hostile peer cannot make the server buffer
   unboundedly or pin a thread forever. *)

exception Error of int * string
(** An HTTP-level protocol error: status code to answer with, and why. *)

exception Closed
(** The peer closed the connection before sending a full request line. *)

let fail status msg = raise (Error (status, msg))

type request = {
  rq_meth : string;  (* uppercase token, e.g. "POST" *)
  rq_path : string;  (* target path, percent-decoded, without the query *)
  rq_query : (string * string) list;  (* decoded key/value pairs *)
  rq_headers : (string * string) list;  (* names lowercased, values trimmed *)
  rq_body : string;
  rq_version : string;  (* "HTTP/1.1" or "HTTP/1.0" *)
}

type response = {
  rs_status : int;
  rs_headers : (string * string) list;
  rs_body : string;
}

(* ---------- limits ---------- *)

let max_line = 8192  (* request line and each header line *)
let max_headers = 128
let default_max_body = 1 lsl 20  (* 1 MiB *)

(* ---------- buffered reader ---------- *)

type reader = {
  fill : bytes -> int -> int -> int;  (* like [Unix.read]; 0 = EOF *)
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable eof : bool;
}

let reader_of_fill fill =
  { fill; chunk = Bytes.create 4096; pos = 0; len = 0; eof = false }

let reader_of_fd fd = reader_of_fill (fun b o l -> Unix.read fd b o l)

(* [chunk] bounds how many bytes each fill returns, to exercise refill
   boundaries in tests (default: all at once). *)
let reader_of_string ?(chunk = max_int) s =
  let off = ref 0 in
  reader_of_fill (fun b o l ->
      let n = min (min l chunk) (String.length s - !off) in
      Bytes.blit_string s !off b o n;
      off := !off + n;
      n)

let refill rd =
  if (not rd.eof) && rd.pos >= rd.len then begin
    rd.pos <- 0;
    rd.len <-
      (try rd.fill rd.chunk 0 (Bytes.length rd.chunk)
       with Unix.Unix_error _ -> 0 (* peer reset: treat as EOF *));
    if rd.len <= 0 then begin
      rd.eof <- true;
      rd.len <- 0
    end
  end

let next_byte rd =
  refill rd;
  if rd.eof then -1
  else begin
    let c = Bytes.get rd.chunk rd.pos in
    rd.pos <- rd.pos + 1;
    Char.code c
  end

(* A CRLF- (or bare-LF-) terminated line. [at_start] distinguishes a
   clean pre-request close (Closed) from a mid-request truncation (400).
   [over] is the status for an over-long line: 414 for the request line,
   431 for headers. *)
let read_line ~over ~at_start rd : string =
  let buf = Buffer.create 64 in
  let rec go () =
    match next_byte rd with
    | -1 ->
        if at_start && Buffer.length buf = 0 then raise Closed
        else fail 400 "unexpected end of request"
    | 10 (* '\n' *) ->
        let s = Buffer.contents buf in
        let n = String.length s in
        if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
    | c ->
        if Buffer.length buf >= max_line then fail over "line too long";
        Buffer.add_char buf (Char.chr c);
        go ()
  in
  go ()

let read_exact rd n : string =
  let out = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    refill rd;
    if rd.eof then fail 400 "request body shorter than content-length";
    let k = min (rd.len - rd.pos) (n - !got) in
    Bytes.blit rd.chunk rd.pos out !got k;
    rd.pos <- rd.pos + k;
    got := !got + k
  done;
  Bytes.unsafe_to_string out

(* ---------- percent coding ---------- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail 400 "bad percent-escape"

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' ->
        if !i + 2 >= n then fail 400 "bad percent-escape";
        Buffer.add_char buf
          (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
        i := !i + 2
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let percent_encode s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
          Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

let parse_query qs : (string * string) list =
  String.split_on_char '&' qs
  |> List.filter_map (fun pair ->
         if pair = "" then None
         else
           match String.index_opt pair '=' with
           | None -> Some (percent_decode pair, "")
           | Some i ->
               Some
                 ( percent_decode (String.sub pair 0 i),
                   percent_decode
                     (String.sub pair (i + 1) (String.length pair - i - 1)) ))

(* ---------- request parsing ---------- *)

let is_token_char c =
  (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
  || String.contains "!#$%&'*+-.^_`|~" c

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] when meth <> "" && target <> "" ->
      if not (String.for_all is_token_char meth) then
        fail 400 "malformed method";
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        if String.length version >= 5 && String.sub version 0 5 = "HTTP/" then
          fail 505 ("unsupported protocol version " ^ version)
        else fail 400 "malformed request line";
      if target.[0] <> '/' then fail 400 "request target must be absolute";
      let path, query =
        match String.index_opt target '?' with
        | None -> (target, [])
        | Some i ->
            ( String.sub target 0 i,
              parse_query
                (String.sub target (i + 1) (String.length target - i - 1)) )
      in
      (String.uppercase_ascii meth, percent_decode path, query, version)
  | _ -> fail 400 "malformed request line"

let trim_ows s =
  let is_ows c = c = ' ' || c = '\t' in
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < n && is_ows s.[!i] do incr i done;
  while !j > !i && is_ows s.[!j - 1] do decr j done;
  String.sub s !i (!j - !i)

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> fail 400 ("malformed header line: " ^ line)
  | Some i ->
      let name = String.sub line 0 i in
      if not (String.for_all is_token_char name) then
        fail 400 ("malformed header name: " ^ name);
      ( String.lowercase_ascii name,
        trim_ows (String.sub line (i + 1) (String.length line - i - 1)) )

let read_headers rd : (string * string) list =
  let rec go n acc =
    let line = read_line ~over:431 ~at_start:false rd in
    if line = "" then List.rev acc
    else if n >= max_headers then fail 431 "too many header fields"
    else go (n + 1) (parse_header_line line :: acc)
  in
  go 0 []

let content_length_of headers ~max_body =
  let cls =
    List.filter_map (fun (k, v) -> if k = "content-length" then Some v else None)
      headers
  in
  match List.sort_uniq compare cls with
  | [] -> None
  | [ v ] ->
      if v = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') v) then
        fail 400 ("malformed content-length: " ^ v);
      let n =
        match int_of_string_opt v with
        | Some n -> n
        | None -> fail 400 ("malformed content-length: " ^ v)
      in
      if n > max_body then
        fail 413 (Printf.sprintf "body of %d bytes exceeds limit %d" n max_body);
      Some n
  | _ :: _ :: _ -> fail 400 "conflicting content-length headers"

let read_request ?(max_body = default_max_body) (rd : reader) : request =
  let line = read_line ~over:414 ~at_start:true rd in
  let meth, path, query, version = parse_request_line line in
  let headers = read_headers rd in
  if List.mem_assoc "transfer-encoding" headers then
    fail 501 "transfer-encoding is not supported; send content-length";
  let body =
    match content_length_of headers ~max_body with
    | Some n -> read_exact rd n
    | None ->
        if meth = "POST" || meth = "PUT" then
          fail 411 "content-length required"
        else ""
  in
  { rq_meth = meth; rq_path = path; rq_query = query; rq_headers = headers;
    rq_body = body; rq_version = version }

let header req name = List.assoc_opt (String.lowercase_ascii name) req.rq_headers

(* ---------- keep-alive ---------- *)

(* Does this request forbid reusing the connection? A Connection header
   is a comma-separated token list; "close" anywhere in it wins. An
   HTTP/1.0 peer must opt in with "keep-alive" explicitly. *)
let want_close (rq : request) : bool =
  let tokens =
    match header rq "connection" with
    | None -> []
    | Some v ->
        String.split_on_char ',' v
        |> List.map (fun s -> String.lowercase_ascii (trim_ows s))
  in
  if List.mem "close" tokens then true
  else if rq.rq_version = "HTTP/1.0" then not (List.mem "keep-alive" tokens)
  else false

(* Unconsumed bytes already sitting in the reader's buffer — a pipelined
   next request that must be served before waiting on the byte source. *)
let buffered (rd : reader) : bool = rd.pos < rd.len

(* ---------- responses ---------- *)

let status_text = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 411 -> "Length Required"
  | 413 -> "Payload Too Large"
  | 414 -> "URI Too Long"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Status"

let response ?(headers = []) status body =
  { rs_status = status; rs_headers = headers; rs_body = body }

let text_response ?(headers = []) status body =
  response ~headers:(("content-type", "text/plain; charset=utf-8") :: headers)
    status body

let json_response ?(headers = []) status (j : Json.t) =
  response ~headers:(("content-type", "application/json") :: headers)
    status
    (Json.to_string j ^ "\n")

let error_response ?headers status msg =
  json_response ?headers status (Json.Obj [ ("error", Json.Str msg) ])

let response_string ?(keep_alive = false) (r : response) : string =
  let buf = Buffer.create (256 + String.length r.rs_body) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.rs_status (status_text r.rs_status));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    r.rs_headers;
  Buffer.add_string buf
    (Printf.sprintf "content-length: %d\r\n" (String.length r.rs_body));
  Buffer.add_string buf
    (if keep_alive then "connection: keep-alive\r\n\r\n"
     else "connection: close\r\n\r\n");
  Buffer.add_string buf r.rs_body;
  Buffer.contents buf

let write_response ?keep_alive (write : string -> unit) (r : response) =
  write (response_string ?keep_alive r)

(* ---------- the connection session ---------- *)

(* Serve one connection: a loop of read-request / dispatch / write-
   response over a single buffered reader, so pipelined requests already
   in the buffer are served back to back. The loop ends when

   - the handler's request said Connection: close (or was HTTP/1.0
     without keep-alive) — the response says "connection: close";
   - [max_requests] responses have been written — the last one also says
     "connection: close";
   - the peer goes quiet: with nothing buffered, [idle_wait] decides
     whether bytes are worth waiting for (the server points it at
     select-with-timeout; [false] tears the connection down silently);
   - the peer closes before a request line ([Closed]); or
   - the stream breaks mid-request ([Error]): after a 413 or a malformed
     frame the body's framing is unknowable, so the error response is
     written with "connection: close" and the session ends. [on_error]
     sees the status for accounting.

   Pure function of the reader + callbacks — the tests drive it with
   string readers and a Buffer writer, no sockets involved. *)
let session ?(max_requests = max_int) ?(max_body = default_max_body)
    ?(idle_wait = fun () -> true) ?(on_error = fun (_ : int) -> ())
    (rd : reader) ~(write : string -> unit)
    ~(handler : request -> response) : unit =
  let rec go served =
    if served >= max_requests then ()
    else if (not (buffered rd)) && rd.eof then ()
    else if (not (buffered rd)) && not (idle_wait ()) then ()
    else
      match read_request ~max_body rd with
      | rq ->
          let resp = handler rq in
          let keep = (not (want_close rq)) && served + 1 < max_requests in
          write (response_string ~keep_alive:keep resp);
          if keep then go (served + 1)
      | exception Closed -> ()
      | exception Error (status, msg) ->
          on_error status;
          write (response_string ~keep_alive:false (error_response status msg))
  in
  go 0

(* ---------- response parsing (for the client) ---------- *)

let read_response (rd : reader) : int * (string * string) list * string =
  let line = read_line ~over:414 ~at_start:true rd in
  let status =
    match String.split_on_char ' ' line with
    | version :: code :: _
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> fail 400 ("malformed status line: " ^ line))
    | _ -> fail 400 ("malformed status line: " ^ line)
  in
  let headers = read_headers rd in
  let body =
    match content_length_of headers ~max_body:max_int with
    | Some n -> read_exact rd n
    | None ->
        (* connection: close delimits the body *)
        let buf = Buffer.create 256 in
        let rec go () =
          match next_byte rd with
          | -1 -> Buffer.contents buf
          | c ->
              Buffer.add_char buf (Char.chr c);
              go ()
        in
        go ()
  in
  (status, headers, body)
