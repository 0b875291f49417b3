(* The one-shot runner end to end: [workbench solve] and [query] run as
   real processes, and their stdout, stderr and exit code must be the
   bytes the Render and Service.Errors contracts define — the same
   bytes [choreographer client] replays from the daemon. *)

module W = Choreographer.Workbench
module R = Choreographer.Render

(* Tests run in _build/default/test under [dune runtest] but in the
   workspace root under [dune exec]; the binaries and assets are
   declared as deps. *)
let locate path =
  let candidates = [ Filename.concat ".." path; Filename.concat "_build/default" path; path ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "%s not found" path

let workbench () = locate "bin/workbench_main.exe"
let choreographer () = locate "bin/choreographer_main.exe"

type run = { stdout : string; stderr : string; code : int }

let run exe args =
  let env = Array.append [| "CHOREOGRAPHER_NO_LEDGER=1" |] (Unix.environment ()) in
  let out, inp, err = Unix.open_process_args_full exe (Array.of_list (exe :: args)) env in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED code -> { stdout; stderr; code }
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.failf "%s was killed" exe

let model_file ?(suffix = ".pepa") source =
  let path = Filename.temp_file "oneshot" suffix in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc source);
  path

(* The rendering [Service.Errors] gives the failure of [f]. *)
let rendered_failure f =
  match f () with
  | _ -> Alcotest.fail "the analysis was expected to fail"
  | exception exn -> (
      match Service.Errors.of_exn exn with
      | Some r -> r
      | None -> Alcotest.failf "no error rendering for %s" (Printexc.to_string exn))

let check_failure label ~source ~args analysis =
  let path = model_file source in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let expected = rendered_failure (fun () -> analysis ~name:(Filename.basename path) source) in
      let got = run (workbench ()) ("solve" :: path :: args) in
      Alcotest.(check string) (label ^ ": stdout") "" got.stdout;
      Alcotest.(check string) (label ^ ": stderr") expected.Service.Errors.message got.stderr;
      Alcotest.(check int) (label ^ ": exit code") expected.Service.Errors.code got.code)

let mm1k () = In_channel.with_open_bin (locate "examples/assets/mm1k.pepa") In_channel.input_all

let test_good_model () =
  let analysis = W.analyse_pepa_string ~name:"mm1k.pepa" (mm1k ()) in
  let stats = Option.get (Markov.Steady.last_stats ()) in
  let got = run (workbench ()) [ "solve"; locate "examples/assets/mm1k.pepa" ] in
  Alcotest.(check string) "stdout" (R.pepa_solve analysis) got.stdout;
  Alcotest.(check string) "stderr" (R.solver_stats_line stats) got.stderr;
  Alcotest.(check int) "exit code" 0 got.code

let test_parse_error () =
  check_failure "parse error" ~source:"P = (a, 1).;\nsystem P\n" ~args:[] (fun ~name source ->
      W.parse_pepa ~name source)

let test_fluid_passive () =
  check_failure "fluid on passive rates" ~source:(mm1k ()) ~args:[ "--fluid" ]
    (fun ~name source -> W.analyse_pepa_fluid_string ~name source)

let test_did_not_converge () =
  check_failure "over-relaxed SOR"
    ~source:"P = (a, 1).(b, 2).(c, 3).P;\nQ = (a, 1).(d, 5).Q;\nsystem P <a> Q;\n"
    ~args:[ "--method"; "sor:1.5" ]
    (fun ~name source -> W.analyse_pepa_string ~name ~method_:(Markov.Steady.Sor 1.5) source);
  Alcotest.(check int) "non-convergence is the analysis-failure code" 2
    Service.Errors.analysis_failure_code

let test_query () =
  let path = locate "examples/assets/mm1k.pepa" in
  let got = run (workbench ()) [ "query"; path; "throughput(arrive)" ] in
  let analysis = W.analyse_pepa_string ~name:"mm1k.pepa" (mm1k ()) in
  let value =
    Choreographer.Query.eval_string (Choreographer.Query.context_of_pepa analysis)
      "throughput(arrive)"
  in
  Alcotest.(check string) "value" (Printf.sprintf "%.10g\n" value) got.stdout;
  Alcotest.(check int) "exit code" 0 got.code;
  let unknown = run (workbench ()) [ "query"; path; "throughput(nosuch)" ] in
  Alcotest.(check string) "unknown action"
    (Service.Errors.model_error "no action type nosuch in the model").Service.Errors.message
    unknown.stderr;
  Alcotest.(check int) "unknown action exits 1" 1 unknown.code

(* Every verb that derives a state space answers a model error as
   [solve] does: the same stderr bytes and exit 1, never an uncaught
   exception. *)
let test_verbs_share_the_error_contract () =
  let basename = Filename.concat (Filename.get_temp_dir_name ()) "oneshot_export" in
  let verbs =
    [
      ("statespace", []);
      ("check", []);
      ("graph", []);
      ("transient", [ "--time"; "1" ]);
      ("export", [ "-o"; basename ]);
      ("passage", [ "-a"; "a" ]);
    ]
  in
  let models =
    [
      ("PEPA parse error", ".pepa", "P = (a, 1).;\nsystem P;\n");
      ("passive rate", ".pepa", "P = (a, infty).P;\nsystem P;\n");
      ("PEPA-net parse error", ".pepanet", "this is not a net\n");
    ]
  in
  List.iter
    (fun (model, suffix, source) ->
      let path = model_file ~suffix source in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let solve = run (workbench ()) [ "solve"; path ] in
          Alcotest.(check int) (model ^ ": solve exits 1") 1 solve.code;
          List.iter
            (fun (verb, args) ->
              let label = Printf.sprintf "%s, %s" model verb in
              let got = run (workbench ()) (verb :: path :: args) in
              Alcotest.(check string) (label ^ ": stdout") "" got.stdout;
              Alcotest.(check string) (label ^ ": stderr") solve.stderr got.stderr;
              Alcotest.(check int) (label ^ ": exit code") 1 got.code)
            verbs))
    models

(* The one-shot and the daemon client's --jobs parse with one grammar:
   both reject a bad count before doing anything, exit 2, and word it
   as [Protocol.jobs_of_string] does. *)
let test_jobs_wording_shared () =
  (* cmdliner wraps long messages: compare with whitespace squashed. *)
  let squash s =
    String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) s)
    |> List.filter (( <> ) "")
    |> String.concat " "
  in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  let model = locate "examples/assets/mm1k.pepa" in
  List.iter
    (fun count ->
      let expected =
        match Service.Protocol.jobs_of_string count with
        | _ -> Alcotest.failf "%s accepted as a job count" count
        | exception Service.Protocol.Protocol_error m -> "option '--jobs': " ^ m
      in
      let oneshot = run (workbench ()) [ "solve"; "--jobs=" ^ count; model ] in
      let client =
        run (choreographer ())
          [ "client"; "solve"; "-s"; "/nonexistent/daemon.sock"; "--jobs=" ^ count; model ]
      in
      List.iter
        (fun (tool, r) ->
          Alcotest.(check int) (Printf.sprintf "%s --jobs=%s exits 2" tool count) 2 r.code;
          Alcotest.(check bool)
            (Printf.sprintf "%s --jobs=%s wording" tool count)
            true
            (contains expected (squash r.stderr)))
        [ ("workbench", oneshot); ("client", client) ])
    [ "-3"; "abc" ]

let suite =
  [
    Alcotest.test_case "good model" `Quick test_good_model;
    Alcotest.test_case "parse error exits 1" `Quick test_parse_error;
    Alcotest.test_case "fluid on passive rates exits 1" `Quick test_fluid_passive;
    Alcotest.test_case "non-converging solve exits 2" `Quick test_did_not_converge;
    Alcotest.test_case "query" `Quick test_query;
    Alcotest.test_case "every verb shares the error contract" `Quick
      test_verbs_share_the_error_contract;
    Alcotest.test_case "--jobs wording shared with the client" `Quick test_jobs_wording_shared;
  ]
