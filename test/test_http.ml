(* fpgrind.serve HTTP layer: request parsing, limits, and routing,
   exercised entirely without a socket — the reader abstraction is fed
   strings, including byte-at-a-time to cross refill boundaries. *)

module Http = Serve.Http
module Router = Serve.Router

let parse ?chunk ?max_body s =
  Http.read_request ?max_body (Http.reader_of_string ?chunk s)

let check_err expected fn =
  match fn () with
  | exception Http.Error (status, _) ->
      Alcotest.(check int) "error status" expected status
  | exception e ->
      Alcotest.fail ("expected Http.Error, got " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected Http.Error, request parsed"

(* ---------- well-formed requests ---------- *)

let test_parse_get () =
  let rq = parse "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Thing:  v  \r\n\r\n" in
  Alcotest.(check string) "method" "GET" rq.Http.rq_meth;
  Alcotest.(check string) "path" "/healthz" rq.Http.rq_path;
  Alcotest.(check string) "body" "" rq.Http.rq_body;
  Alcotest.(check (option string))
    "header names lowercased, values trimmed" (Some "v")
    (Http.header rq "X-Thing")

let test_parse_post_body () =
  let raw =
    "POST /analyze?iterations=4&name=hello+world&pct=%2Fx HTTP/1.1\r\n\
     Content-Length: 11\r\n\r\nbench:intro"
  in
  let check rq =
    Alcotest.(check string) "method" "POST" rq.Http.rq_meth;
    Alcotest.(check string) "path" "/analyze" rq.Http.rq_path;
    Alcotest.(check string) "body" "bench:intro" rq.Http.rq_body;
    Alcotest.(check (option string))
      "plus decodes to space" (Some "hello world")
      (Router.q_opt rq "name");
    Alcotest.(check (option string))
      "percent-escape decodes" (Some "/x") (Router.q_opt rq "pct");
    Alcotest.(check int) "typed query int" 4
      (Router.q_int rq "iterations" ~default:0)
  in
  check (parse raw);
  (* one byte per fill: every refill boundary is crossed *)
  check (parse ~chunk:1 raw)

let test_duplicate_equal_content_length () =
  (* duplicate content-length headers with the SAME value collapse *)
  let rq =
    parse "POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 2\r\n\r\nhi"
  in
  Alcotest.(check string) "body" "hi" rq.Http.rq_body

let test_bare_lf_lines () =
  let rq = parse "GET /x HTTP/1.0\nhost: y\n\n" in
  Alcotest.(check string) "path" "/x" rq.Http.rq_path

(* ---------- malformed request lines ---------- *)

let test_malformed_request_line () =
  check_err 400 (fun () -> parse "GETHTTP/1.1\r\n\r\n");
  check_err 400 (fun () -> parse "GET /x HTTP/1.1 extra\r\n\r\n");
  check_err 400 (fun () -> parse "GET /x FOO/1.1\r\n\r\n");
  check_err 400 (fun () -> parse "GET x HTTP/1.1\r\n\r\n");
  check_err 400 (fun () -> parse "G@T /x HTTP/1.1\r\n\r\n");
  check_err 505 (fun () -> parse "GET /x HTTP/2.0\r\n\r\n")

let test_request_line_too_long () =
  let line = "GET /" ^ String.make 9000 'a' ^ " HTTP/1.1\r\n\r\n" in
  check_err 414 (fun () -> parse line)

let test_too_many_headers () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "GET /x HTTP/1.1\r\n";
  for i = 0 to 200 do
    Buffer.add_string buf (Printf.sprintf "h%d: v\r\n" i)
  done;
  Buffer.add_string buf "\r\n";
  check_err 431 (fun () -> parse (Buffer.contents buf))

let test_malformed_header () =
  check_err 400 (fun () -> parse "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n");
  check_err 400 (fun () -> parse "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n")

(* ---------- content-length edge cases ---------- *)

let test_post_without_length () =
  check_err 411 (fun () -> parse "POST /x HTTP/1.1\r\nhost: y\r\n\r\n")

let test_malformed_content_length () =
  check_err 400 (fun () ->
      parse "POST /x HTTP/1.1\r\ncontent-length: 12abc\r\n\r\n");
  check_err 400 (fun () ->
      parse "POST /x HTTP/1.1\r\ncontent-length: -1\r\n\r\n");
  check_err 400 (fun () -> parse "POST /x HTTP/1.1\r\ncontent-length:\r\n\r\n")

let test_conflicting_content_length () =
  check_err 400 (fun () ->
      parse
        "POST /x HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nhi")

let test_oversized_body () =
  check_err 413 (fun () ->
      parse ~max_body:5 "POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\n")

let test_truncated_body () =
  check_err 400 (fun () ->
      parse "POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")

let test_transfer_encoding_refused () =
  check_err 501 (fun () ->
      parse "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")

let test_bad_percent_escape () =
  check_err 400 (fun () -> parse "GET /x?v=%zz HTTP/1.1\r\n\r\n");
  check_err 400 (fun () -> parse "GET /x?v=%2 HTTP/1.1\r\n\r\n")

let test_clean_close_is_distinguished () =
  (match parse "" with
  | exception Http.Closed -> ()
  | exception _ -> Alcotest.fail "empty stream must raise Closed"
  | _ -> Alcotest.fail "empty stream parsed");
  (* truncation after the request line is a protocol error, not Closed *)
  check_err 400 (fun () -> parse "GET /x HTTP/1.1\r\nhost")

(* ---------- responses round-trip through the client parser ---------- *)

let test_response_roundtrip () =
  let resp =
    Http.json_response 200
      (Json.Obj [ ("name", Json.Str "intro-example") ])
  in
  let status, headers, body =
    Http.read_response (Http.reader_of_string (Http.response_string resp))
  in
  Alcotest.(check int) "status" 200 status;
  Alcotest.(check (option string))
    "connection: close" (Some "close")
    (List.assoc_opt "connection" headers);
  Alcotest.(check string) "body" "{\"name\":\"intro-example\"}\n" body

let test_error_response_body () =
  let status, _, body =
    Http.read_response
      (Http.reader_of_string
         (Http.response_string (Http.error_response 503 "queue full")))
  in
  Alcotest.(check int) "status" 503 status;
  Alcotest.(check string) "json error body" "{\"error\":\"queue full\"}\n" body

(* ---------- routing ---------- *)

let routes : Router.t =
  [
    ("GET", "/healthz", fun _ -> Http.text_response 200 "ok\n");
    ("POST", "/analyze", fun _ -> Http.text_response 200 "analyzed");
  ]

let test_router_dispatch () =
  let rq path meth =
    parse (Printf.sprintf "%s %s HTTP/1.1\r\ncontent-length: 0\r\n\r\n" meth path)
  in
  Alcotest.(check int)
    "known route" 200
    (Router.dispatch routes (rq "/healthz" "GET")).Http.rs_status;
  Alcotest.(check int)
    "unknown path is 404" 404
    (Router.dispatch routes (rq "/nope" "GET")).Http.rs_status;
  let r405 = Router.dispatch routes (rq "/analyze" "GET") in
  Alcotest.(check int) "wrong method is 405" 405 r405.Http.rs_status;
  Alcotest.(check (option string))
    "allow header names the method" (Some "POST")
    (List.assoc_opt "allow" r405.Http.rs_headers)

let test_query_accessors_reject_garbage () =
  let rq = parse "GET /x?n=abc&f=zz&fs=1,zz HTTP/1.1\r\n\r\n" in
  check_err 400 (fun () -> Router.q_int rq "n" ~default:0);
  check_err 400 (fun () -> Router.q_float rq "f" ~default:0.0);
  check_err 400 (fun () -> Router.q_floats rq "fs" ~default:[])

(* ---------- keep-alive sessions ----------

   [Http.session] is a pure function of a reader plus callbacks, so every
   connection-lifetime policy is testable without a socket: the "wire" is
   a string, the responses land in a buffer, and idle_wait is a stateful
   closure standing in for select(2). *)

let run_session ?max_requests ?max_body ?idle_wait ?on_error wire =
  let out = Buffer.create 256 in
  let served = ref [] in
  Http.session ?max_requests ?max_body ?idle_wait ?on_error
    (Http.reader_of_string wire)
    ~write:(Buffer.add_string out)
    ~handler:(fun rq ->
      served := rq.Http.rq_path :: !served;
      Http.text_response 200 ("saw " ^ rq.Http.rq_path));
  (List.rev !served, Buffer.contents out)

(* split the response byte stream back into (status, connection) pairs *)
let parse_responses (s : string) : (int * string option) list =
  let rd = Http.reader_of_string s in
  let rec go acc =
    match Http.read_response rd with
    | status, headers, _ ->
        go ((status, List.assoc_opt "connection" headers) :: acc)
    | exception Http.Closed -> List.rev acc
  in
  go []

let get path = Printf.sprintf "GET %s HTTP/1.1\r\nhost: x\r\n\r\n" path

let test_pipelined_second_request () =
  (* the second request is already buffered when the first response goes
     out, so the session must serve it without consulting idle_wait in
     between; idle_wait fires once before the first read (empty buffer)
     and once at the final EOF probe *)
  let idle_calls = ref 0 in
  let served, out =
    run_session
      ~idle_wait:(fun () -> incr idle_calls; !idle_calls <= 1)
      (get "/a" ^ get "/b")
  in
  Alcotest.(check (list string)) "both served in order" [ "/a"; "/b" ] served;
  (match parse_responses out with
  | [ (200, Some "keep-alive"); (200, _) ] -> ()
  | rs ->
      Alcotest.failf "expected two responses, first keep-alive, got %d"
        (List.length rs));
  Alcotest.(check int) "no idle consult between the pair" 2 !idle_calls

let test_connection_close_honored () =
  let served, out =
    run_session
      ("GET /a HTTP/1.1\r\nconnection: close\r\n\r\n" ^ get "/b")
  in
  Alcotest.(check (list string)) "second request never read" [ "/a" ] served;
  match parse_responses out with
  | [ (200, Some "close") ] -> ()
  | _ -> Alcotest.fail "expected a single connection: close response"

let test_http10_defaults_to_close () =
  let served, out =
    run_session ("GET /a HTTP/1.0\r\n\r\n" ^ get "/b")
  in
  Alcotest.(check (list string)) "HTTP/1.0 closes after one" [ "/a" ] served;
  (match parse_responses out with
  | [ (200, Some "close") ] -> ()
  | _ -> Alcotest.fail "expected connection: close");
  (* ...unless the client opts in *)
  let served, _ =
    run_session
      ("GET /a HTTP/1.0\r\nconnection: keep-alive\r\n\r\n" ^ get "/b")
  in
  Alcotest.(check (list string)) "keep-alive opt-in" [ "/a"; "/b" ] served

let test_idle_timeout_teardown () =
  (* one request, then silence: the post-response idle consult says
     "timed out" and the session ends without reading anything more *)
  let idle_calls = ref 0 in
  let served, out =
    run_session
      ~idle_wait:(fun () -> incr idle_calls; !idle_calls <= 1)
      (get "/a")
  in
  Alcotest.(check (list string)) "one request served" [ "/a" ] served;
  Alcotest.(check int) "idle_wait consulted twice" 2 !idle_calls;
  match parse_responses out with
  | [ (200, Some "keep-alive") ] -> ()
  | _ -> Alcotest.fail "expected one keep-alive response"

let test_413_closes_mid_stream () =
  (* an oversized body poisons the framing: the session cannot know where
     the declared body ends, so it must answer 413 with connection: close
     and never look at the pipelined follow-up *)
  let big =
    "POST /analyze HTTP/1.1\r\ncontent-length: 64\r\n\r\n"
    ^ String.make 64 'x'
  in
  let errors = ref [] in
  let served, out =
    run_session ~max_body:16
      ~on_error:(fun s -> errors := s :: !errors)
      (big ^ get "/b")
  in
  Alcotest.(check (list string)) "nothing served" [] served;
  Alcotest.(check (list int)) "413 reported" [ 413 ] !errors;
  match parse_responses out with
  | [ (413, Some "close") ] -> ()
  | _ -> Alcotest.fail "expected a single 413 close response"

let test_request_cap_closes_last () =
  let served, out =
    run_session ~max_requests:2 (get "/a" ^ get "/b" ^ get "/c")
  in
  Alcotest.(check (list string)) "cap at two" [ "/a"; "/b" ] served;
  match parse_responses out with
  | [ (200, Some "keep-alive"); (200, Some "close") ] -> ()
  | _ -> Alcotest.fail "expected keep-alive then close at the cap"

let () =
  Alcotest.run "http"
    [
      ( "parse",
        [
          Alcotest.test_case "simple GET" `Quick test_parse_get;
          Alcotest.test_case "POST with query and body" `Quick
            test_parse_post_body;
          Alcotest.test_case "duplicate equal content-length" `Quick
            test_duplicate_equal_content_length;
          Alcotest.test_case "bare LF line endings" `Quick test_bare_lf_lines;
        ] );
      ( "errors",
        [
          Alcotest.test_case "malformed request line" `Quick
            test_malformed_request_line;
          Alcotest.test_case "request line too long" `Quick
            test_request_line_too_long;
          Alcotest.test_case "too many headers" `Quick test_too_many_headers;
          Alcotest.test_case "malformed header" `Quick test_malformed_header;
          Alcotest.test_case "POST without content-length" `Quick
            test_post_without_length;
          Alcotest.test_case "malformed content-length" `Quick
            test_malformed_content_length;
          Alcotest.test_case "conflicting content-length" `Quick
            test_conflicting_content_length;
          Alcotest.test_case "oversized body is 413" `Quick test_oversized_body;
          Alcotest.test_case "truncated body is 400" `Quick test_truncated_body;
          Alcotest.test_case "transfer-encoding is 501" `Quick
            test_transfer_encoding_refused;
          Alcotest.test_case "bad percent-escape" `Quick test_bad_percent_escape;
          Alcotest.test_case "clean close vs truncation" `Quick
            test_clean_close_is_distinguished;
        ] );
      ( "responses",
        [
          Alcotest.test_case "round trip" `Quick test_response_roundtrip;
          Alcotest.test_case "error body is json" `Quick test_error_response_body;
        ] );
      ( "router",
        [
          Alcotest.test_case "dispatch, 404, 405" `Quick test_router_dispatch;
          Alcotest.test_case "typed query rejects garbage" `Quick
            test_query_accessors_reject_garbage;
        ] );
      ( "keepalive",
        [
          Alcotest.test_case "pipelined second request" `Quick
            test_pipelined_second_request;
          Alcotest.test_case "connection: close honored" `Quick
            test_connection_close_honored;
          Alcotest.test_case "HTTP/1.0 defaults to close" `Quick
            test_http10_defaults_to_close;
          Alcotest.test_case "idle timeout tears down" `Quick
            test_idle_timeout_teardown;
          Alcotest.test_case "413 mid-stream closes" `Quick
            test_413_closes_mid_stream;
          Alcotest.test_case "request cap closes last response" `Quick
            test_request_cap_closes_last;
        ] );
    ]
