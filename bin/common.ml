(* What the fpgrind subcommands share: the one error guard every command
   runs under, the PROGRAM term with its loading flags, the analysis
   configuration term, and the flags several commands define alike. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------- user errors ---------- *)

(* Run a command body. Every exception that bad user input can raise —
   an unknown benchmark, a file that is missing or does not parse, a
   corrupt store, a refused connection — becomes "error: MSG" on stderr
   and exit 1. *)
let guard (body : unit -> int) : int =
  try body () with
  | Minic.Compile_error msg
  | Fpcore.Parse.Error msg
  | Fpcore.Sexp.Parse_error msg
  | Fpcore.Compile.Error msg
  | Sys_error msg
  | Invalid_argument msg
  | Failure msg
  | Json.Parse_error msg
  | Serve.Http.Error (_, msg)
  | Campaign.Runner.Resume_mismatch msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "error: %s: %s\n" fn (Unix.error_message e);
      1

(* A subcommand whose term yields its body, run under [guard]. *)
let cmd name ~doc (body : (unit -> int) Term.t) : int Cmd.t =
  Cmd.v (Cmd.info name ~doc) Term.(const guard $ body)

(* ---------- flags several commands define alike ---------- *)

let seed_arg ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc)

let jobs_arg ~doc = Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let timeout_arg ~doc =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let quiet_arg ~doc = Arg.(value & flag & info [ "quiet" ] ~doc)

let json_arg ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let inputs_arg =
  Arg.(
    value & opt (list float) []
    & info [ "inputs" ] ~docv:"FLOATS"
        ~doc:"Comma-separated values returned by the __arg builtin.")

let iterations_arg =
  Arg.(
    value & opt int 16
    & info [ "iterations" ] ~docv:"N"
        ~doc:"Input tuples to run for FPCore programs.")

(* out-of-range precisions are refused while the command line is
   parsed, before anything runs *)
let precision_arg =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun p ->
        Result.map_error (fun m -> `Msg m) (Core.Config.check_precision p))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) Core.Config.default.Core.Config.precision
    & info [ "precision" ] ~docv:"BITS" ~doc:"Shadow real precision in bits.")

let threshold_arg =
  Arg.(
    value & opt float Core.Config.default.Core.Config.error_threshold
    & info [ "threshold" ] ~docv:"BITS"
        ~doc:"Bits of local error that taint an operation.")

(* ---------- engines ---------- *)

let engine_arg ~engines ~default ~doc =
  Arg.(
    value
    & opt (enum (List.map (fun e -> (Core.Config.engine_name e, e)) engines)) default
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* for commands that take --engine as a plain name (validate, client) *)
let check_engine_name name =
  if Core.Config.engine_of_name name = None then
    failwith
      (Printf.sprintf "unknown engine %S (expected full, sanitize or tiered)"
         name)

(* ---------- the analysis configuration ---------- *)

(* --precision, --threshold and --engine over the paper's defaults *)
let config : Core.Config.t Term.t =
  let engine =
    engine_arg
      ~engines:Core.Config.[ Full; Sanitize; Tiered ]
      ~default:Core.Config.Full
      ~doc:
        "Analysis engine: $(b,full) is the Herbgrind-style shadow-real \
         analysis; $(b,sanitize) is the fast NSan-style double-double \
         sanitizer; $(b,tiered) triages with the sanitizer and escalates \
         only the flagged slices to the full analysis."
  in
  let make precision error_threshold engine =
    { Core.Config.default with Core.Config.precision; error_threshold; engine }
  in
  Term.(const make $ precision_arg $ threshold_arg $ engine)

(* ---------- the program under analysis ---------- *)

let load_program ~wrap_libm ~vectorize ~iterations path : Vex.Ir.prog * float array =
  if Filename.check_suffix path ".fpcore" then begin
    let core = Fpcore.Parse.parse_core (read_file path) in
    let prog = Fpcore.Compile.compile ~wrap_libm ~n_inputs:iterations core in
    (prog, [||])
  end
  else if String.length path > 6 && String.sub path 0 6 = "bench:" then begin
    let name = String.sub path 6 (String.length path - 6) in
    let bench = Fpcore.Suite.find name in
    let core = Fpcore.Suite.core_of bench in
    let prog =
      Fpcore.Compile.compile ~wrap_libm ~n_inputs:iterations ~name core
    in
    let inputs = Fpcore.Suite.inputs_for bench ~n:iterations in
    (prog, inputs)
  end
  else (Minic.compile_file ~wrap_libm ~vectorize path, [||])

(* PROGRAM and the flags that shape its loading. The term yields a
   loader so that load errors surface inside the command's [guard]; it
   returns the program and its inputs — --inputs when given, otherwise a
   benchmark's sampled inputs. *)
let program : (unit -> Vex.Ir.prog * float array) Term.t =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROGRAM"
          ~doc:
            "A MiniC source file (.mc), an FPCore file (.fpcore), or \
             bench:NAME for a suite benchmark.")
  in
  let vectorize =
    Arg.(
      value & flag
      & info [ "vectorize" ]
          ~doc:"Auto-vectorize elementwise double loops to SSE operations.")
  in
  let no_wrap =
    Arg.(
      value & flag
      & info [ "no-wrap-libm" ]
          ~doc:
            "Compile math calls to the MiniC math library instead of \
             intercepted library calls (section 8.2 ablation).")
  in
  let load path inputs iterations vectorize no_wrap () =
    let prog, bench_inputs =
      load_program ~wrap_libm:(not no_wrap) ~vectorize ~iterations path
    in
    (prog, if inputs <> [] then Array.of_list inputs else bench_inputs)
  in
  Term.(const load $ path $ inputs_arg $ iterations_arg $ vectorize $ no_wrap)
