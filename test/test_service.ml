(* The daemon service layer: wire framing, the protocol codec, the
   content-hash model cache, the engine's staged memoisation, sweep
   warm-starts, and a live daemon exercised over a real Unix socket —
   including the headline contract that a solve served by the daemon is
   byte-identical to the one-shot CLI's output. *)

let asset name =
  (* Tests run in _build/default/test; the assets are declared as deps. *)
  let candidates =
    [ Filename.concat "../examples/assets" name; Filename.concat "examples/assets" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "asset %s not found" name

let read_file path = In_channel.with_open_bin path In_channel.input_all
let mm1k () = read_file (asset "mm1k.pepa")
let has_prefix prefix s = String.starts_with ~prefix s

let has_infix needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* [replace_once old_ new_ s]: s with the first occurrence of [old_]
   swapped for [new_]; fails the test when [old_] is absent. *)
let replace_once old_ new_ s =
  let n = String.length s and no = String.length old_ in
  let rec find i = if i + no > n then None else if String.sub s i no = old_ then Some i else find (i + 1) in
  match find 0 with
  | Some i -> String.sub s 0 i ^ new_ ^ String.sub s (i + no) (n - i - no)
  | None -> Alcotest.failf "%S not found in source" old_

let default = Service.Protocol.default_options

let solve_request ?(options = default) ~name source =
  Service.Protocol.Solve { kind = Service.Protocol.Pepa; name; source; options }

let response_output = function
  | Service.Protocol.Ok_response { output; _ } -> output
  | Service.Protocol.Error_response { message; _ } ->
      Alcotest.failf "unexpected error response: %s" message

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = "{\"verb\":\"solve\",\"pad\":\"" ^ String.make 5000 'x' ^ "\"}" in
  Service.Frame.write a payload;
  Alcotest.(check (option string)) "round trip" (Some payload) (Service.Frame.read b);
  Unix.close a;
  Alcotest.(check (option string)) "clean close" None (Service.Frame.read b);
  Unix.close b

let test_frame_length_codec () =
  let payload = "hello frames" in
  let encoded = Service.Frame.encode payload in
  Alcotest.(check int) "prefix + payload"
    (4 + String.length payload)
    (String.length encoded);
  Alcotest.(check int) "declared length" (String.length payload)
    (Service.Frame.decode_length (String.sub encoded 0 4))

let test_frame_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let encoded = Service.Frame.encode (String.make 100 'y') in
  let cut = String.length encoded - 3 in
  assert (Unix.write_substring a encoded 0 cut = cut);
  Unix.close a;
  (match Service.Frame.read b with
  | exception Service.Frame.Frame_error msg ->
      Alcotest.(check bool) "mid-frame EOF named" true (has_infix "closed" msg)
  | Some _ | None -> Alcotest.fail "truncated frame not rejected");
  Unix.close b

let test_frame_oversized () =
  (* A length header beyond the cap is rejected before any allocation;
     an HTTP request line is exactly such a header, which is what lets
     the server share one socket between both protocols. *)
  let huge = "\xff\xff\xff\xff" in
  (match Service.Frame.decode_length huge with
  | exception Service.Frame.Frame_error _ -> ()
  | n -> Alcotest.failf "oversized header accepted as %d" n);
  match Service.Frame.decode_length "GET " with
  | exception Service.Frame.Frame_error _ -> ()
  | n -> Alcotest.failf "HTTP sniff: 'GET ' accepted as frame length %d" n

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let roundtrip_request request =
  Service.Protocol.request_of_json (Service.Protocol.request_to_json request)

let test_protocol_roundtrip () =
  let options =
    {
      Service.Protocol.method_ = Some (Markov.Steady.Sor 1.5);
      aggregate = Markov.Lump.Both;
      fluid = Some { Fluid.Rk45.rtol = 1e-6; atol = 1e-10 };
      jobs = 4;
      max_states = Some 100_000;
      restart = `Absorb;
    }
  in
  let requests =
    [
      solve_request ~options ~name:"m.pepa" "P = (a, 1.0).P;\nsystem P;";
      Service.Protocol.Query
        {
          kind = Service.Protocol.Net;
          name = "n.pepanet";
          source = "...";
          query = "throughput(serve)";
          options = default;
        };
      Service.Protocol.Pipeline
        { name = "doc"; document = "<XMI/>"; rates = Some "a = 1.0\n"; options };
      Service.Protocol.Reflect
        { name = "doc"; document = "activity A"; rates = None; options = default };
      Service.Protocol.Sweep
        {
          kind = Service.Protocol.Pepa;
          name = "m.pepa";
          source = "...";
          options = default;
          axes =
            [
              { Service.Protocol.target = `Rate "arrive"; values = [ 1.0; 2.0 ] };
              { Service.Protocol.target = `Replicas "Queue"; values = [ 2.0; 4.0; 8.0 ] };
            ];
          backend = Service.Protocol.Fluid_ode;
          warm_start = false;
        };
      Service.Protocol.Stats;
      Service.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun request ->
      if roundtrip_request request <> request then
        Alcotest.failf "request did not round-trip: %s"
          (Obs.Json.to_string (Service.Protocol.request_to_json request)))
    requests;
  let responses =
    [
      Service.Protocol.Ok_response
        {
          output = "table\n";
          diagnostics = "solver: ...\n";
          data = Obs.Json.Obj [ ("k", Obs.Json.Num 1.0) ];
        };
      Service.Protocol.Error_response { code = 2; message = "error: no\nhint: yes\n" };
    ]
  in
  List.iter
    (fun response ->
      if
        Service.Protocol.response_of_json (Service.Protocol.response_to_json response)
        <> response
      then Alcotest.fail "response did not round-trip")
    responses

let test_protocol_rejects () =
  Alcotest.check_raises "unknown verb"
    (Service.Protocol.Protocol_error "unknown verb frobnicate") (fun () ->
      ignore
        (Service.Protocol.request_of_json
           (Obs.Json.Obj [ ("verb", Obs.Json.Str "frobnicate") ])));
  (match Service.Protocol.method_of_string "sor:2.5" with
  | exception Service.Protocol.Protocol_error _ -> ()
  | _ -> Alcotest.fail "sor:2.5 accepted");
  Alcotest.(check bool) "sor omega parses" true
    (Service.Protocol.method_of_string "sor:0.8" = Some (Markov.Steady.Sor 0.8))

(* Counts must be integers in [0, max_int]: 6e18 would wrap negative
   through [int_of_float]. *)
let with_option key value = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (List.map
           (function
             | "options", Obs.Json.Obj o ->
                 ("options", Obs.Json.Obj ((key, value) :: List.remove_assoc key o))
             | field -> field)
           fields)
  | json -> json

let solve_json () = Service.Protocol.request_to_json (solve_request ~name:"m.pepa" (mm1k ()))

let test_protocol_rejects_counts () =
  List.iter
    (fun (key, v) ->
      let json = with_option key (Obs.Json.Num v) (solve_json ()) in
      match Service.Protocol.request_of_json json with
      | exception Service.Protocol.Protocol_error msg ->
          Alcotest.(check string)
            (Printf.sprintf "%s = %g rejected" key v)
            (Printf.sprintf "field %s is not an integer in [0, max_int]" key)
            msg
      | _ -> Alcotest.failf "%s = %g accepted" key v)
    [
      ("jobs", 6e18); ("jobs", -1.0); ("jobs", 1.5); ("jobs", Float.infinity);
      ("max_states", -3.0); ("max_states", 1e300); ("max_states", 0.5);
    ];
  match
    Service.Protocol.request_of_json (with_option "jobs" (Obs.Json.Num 4e18) (solve_json ()))
  with
  | Service.Protocol.Solve { options; _ } ->
      Alcotest.(check int) "a large but representable count decodes" 4_000_000_000_000_000_000
        options.Service.Protocol.jobs
  | _ -> Alcotest.fail "solve decoded to another verb"

(* One wording for --method, --fluid and --aggregate: the CLI
   converters and the daemon decoder report the same text, the CLI's
   historical one. *)
let test_option_wording_shared () =
  let cases =
    [
      ( "--method banana",
        Cmdliner.Arg.conv_parser Cli_support.method_conv "banana" |> Result.map ignore,
        (fun () -> ignore (Service.Protocol.method_of_string "banana")),
        "unknown method banana (valid: auto, direct, jacobi, gauss-seidel, sor[:omega], \
         power, bicgstab)" );
      ( "--method sor:3",
        Cmdliner.Arg.conv_parser Cli_support.method_conv "sor:3" |> Result.map ignore,
        (fun () -> ignore (Service.Protocol.method_of_string "sor:3")),
        "SOR relaxation 3 outside (0, 2)" );
      ( "--fluid 0",
        Cmdliner.Arg.conv_parser Cli_support.fluid_conv "0" |> Result.map ignore,
        (fun () -> ignore (Service.Protocol.fluid_of_string "0")),
        "invalid fluid tolerances 0 (valid: RTOL or RTOL,ATOL with both positive, e.g. \
         1e-8 or 1e-8,1e-12)" );
      ( "--aggregate banana",
        Cmdliner.Arg.conv_parser Cli_support.aggregate_conv "banana" |> Result.map ignore,
        (fun () ->
          ignore
            (Service.Protocol.request_of_json
               (with_option "aggregate" (Obs.Json.Str "banana") (solve_json ())))),
        "unknown aggregation mode banana (valid: none, symmetry, lump, both)" );
    ]
  in
  List.iter
    (fun (label, cli, daemon, expected) ->
      (match cli with
      | Error (`Msg m) -> Alcotest.(check string) (label ^ ": CLI message") expected m
      | Ok () -> Alcotest.failf "%s accepted by the CLI" label);
      Alcotest.check_raises (label ^ ": daemon message")
        (Service.Protocol.Protocol_error expected) daemon)
    cases

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let cache = Service.Cache.create ~capacity:2 () in
  let build v () = v in
  Alcotest.(check int) "miss a" 1 (fst (Service.Cache.find_or_create cache ~key:"a" (build 1)));
  Alcotest.(check int) "miss b" 2 (fst (Service.Cache.find_or_create cache ~key:"b" (build 2)));
  (* Touch a so b is the least recently used, then overflow. *)
  (match Service.Cache.find_or_create cache ~key:"a" (build 99) with
  | 1, `Hit -> ()
  | v, _ -> Alcotest.failf "expected cached a=1 hit, got %d" v);
  ignore (Service.Cache.find_or_create cache ~key:"c" (build 3));
  Alcotest.(check int) "capacity held" 2 (Service.Cache.length cache);
  (match Service.Cache.find_or_create cache ~key:"a" (build 99) with
  | 1, `Hit -> ()
  | _ -> Alcotest.fail "a should have survived the eviction");
  (match Service.Cache.find_or_create cache ~key:"b" (build 42) with
  | 42, `Miss -> ()
  | _ -> Alcotest.fail "b should have been evicted");
  let hits, misses, evictions = Service.Cache.counts cache in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 4 misses;
  (* b evicted by c, then c evicted when b was rebuilt. *)
  Alcotest.(check int) "evictions" 2 evictions

(* ------------------------------------------------------------------ *)
(* Engine: the staged model cache                                      *)
(* ------------------------------------------------------------------ *)

let stage_names (outcome : Service.Engine.outcome) = List.map fst outcome.Service.Engine.stages

let test_engine_stage_cache () =
  let engine = Service.Engine.create () in
  let source = mm1k () in
  let request = solve_request ~name:"mm1k.pepa" source in
  let first = Service.Engine.handle engine request in
  Alcotest.(check (list string))
    "cold run times every stage"
    [ "parse"; "compile"; "derive"; "solve" ]
    (stage_names first);
  let second = Service.Engine.handle engine request in
  Alcotest.(check (list string)) "repeat run times nothing" [] (stage_names second);
  Alcotest.(check bool) "responses identical" true
    (first.Service.Engine.response = second.Service.Engine.response);
  (* Changing only the method keeps parse/compile/derive cached. *)
  let direct =
    solve_request
      ~options:{ default with Service.Protocol.method_ = Some Markov.Steady.Direct }
      ~name:"mm1k.pepa" source
  in
  Alcotest.(check (list string))
    "method change re-runs only the solve" [ "solve" ]
    (stage_names (Service.Engine.handle engine direct));
  (* Changing the source is a different content hash: everything runs. *)
  let touched = solve_request ~name:"mm1k.pepa" (source ^ "\n% touched\n") in
  Alcotest.(check (list string))
    "source change re-runs everything"
    [ "parse"; "compile"; "derive"; "solve" ]
    (stage_names (Service.Engine.handle engine touched))

let test_engine_solve_matches_workbench () =
  let engine = Service.Engine.create () in
  let source = mm1k () in
  let output =
    response_output
      (Service.Engine.handle engine (solve_request ~name:"mm1k.pepa" source)).Service.Engine.response
  in
  let direct = Choreographer.Workbench.analyse_pepa_string ~name:"mm1k.pepa" source in
  Alcotest.(check string)
    "engine output = Render of a direct analysis"
    (Choreographer.Render.pepa_solve direct)
    output

let test_engine_query () =
  let engine = Service.Engine.create () in
  let source = mm1k () in
  let request =
    Service.Protocol.Query
      {
        kind = Service.Protocol.Pepa;
        name = "mm1k.pepa";
        source;
        query = "throughput(serve)";
        options = default;
      }
  in
  let output = response_output (Service.Engine.handle engine request).Service.Engine.response in
  let direct = Choreographer.Workbench.analyse_pepa_string ~name:"mm1k.pepa" source in
  let expected =
    Printf.sprintf "%.10g\n"
      (Choreographer.Query.eval_string
         (Choreographer.Query.context_of_pepa direct)
         "throughput(serve)")
  in
  Alcotest.(check string) "query value" expected output

let test_engine_error_contract () =
  let engine = Service.Engine.create () in
  let outcome =
    Service.Engine.handle engine (solve_request ~name:"bad.pepa" "P = (a, 1.0).Q;\nsystem P;")
  in
  match outcome.Service.Engine.response with
  | Service.Protocol.Error_response { code; message } ->
      Alcotest.(check int) "model error code" Service.Errors.model_error_code code;
      let expected =
        match
          Choreographer.Workbench.analyse_pepa_string ~name:"bad.pepa"
            "P = (a, 1.0).Q;\nsystem P;"
        with
        | exception Choreographer.Workbench.Analysis_error msg ->
            Printf.sprintf "error: %s\n" msg
        | _ -> Alcotest.fail "expected the model to be invalid"
      in
      Alcotest.(check string) "CLI stderr bytes" expected message
  | Service.Protocol.Ok_response _ -> Alcotest.fail "expected an error response"

(* ------------------------------------------------------------------ *)
(* Ingest                                                              *)
(* ------------------------------------------------------------------ *)

let test_ingest () =
  (match Choreographer.Ingest.document_of_string ~name:"d.xmi" "<unclosed" with
  | Error msg ->
      Alcotest.(check bool) "XML error labelled" true
        (String.length msg > 5 && String.sub msg 0 5 = "d.xmi")
  | Ok _ -> Alcotest.fail "malformed XML accepted");
  (match Choreographer.Ingest.rates_of_string ~name:"r.rates" "not a rate line" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed rates accepted");
  (match Choreographer.Ingest.rates_of_file None with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "omitted rates file rejected: %s" msg);
  match Choreographer.Ingest.document_of_file (asset "pda.uml") with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_warm_equals_cold () =
  let model = Choreographer.Workbench.parse_pepa ~name:"mm1k.pepa" (mm1k ()) in
  let axes =
    [ { Service.Protocol.target = `Rate "arrive"; values = [ 1.0; 1.5; 2.0; 2.5 ] } ]
  in
  let run warm_start =
    Service.Sweep.run ~name:"mm1k.pepa" ~model ~options:default ~axes
      ~backend:Service.Protocol.Exact ~warm_start
  in
  let warm = run true and cold = run false in
  Alcotest.(check int) "same grid" (List.length cold.Service.Sweep.points)
    (List.length warm.Service.Sweep.points);
  List.iteri
    (fun i (w : Service.Sweep.point) ->
      let c = List.nth cold.Service.Sweep.points i in
      Alcotest.(check bool)
        (Printf.sprintf "point %d warm flag" i)
        (i > 0) w.Service.Sweep.warm;
      Alcotest.(check bool) "cold never warm" false c.Service.Sweep.warm;
      List.iter2
        (fun (wa, wv) (ca, cv) ->
          Alcotest.(check string) "same action" ca wa;
          if abs_float (wv -. cv) > 1e-10 then
            Alcotest.failf "point %d %s: warm %.15g vs cold %.15g" i wa wv cv)
        w.Service.Sweep.throughputs c.Service.Sweep.throughputs)
    warm.Service.Sweep.points

let test_sweep_axis_validation () =
  let model = Choreographer.Workbench.parse_pepa ~name:"mm1k.pepa" (mm1k ()) in
  let axes = [ { Service.Protocol.target = `Rate "no_such_rate"; values = [ 1.0 ] } ] in
  match
    Service.Sweep.run ~name:"mm1k.pepa" ~model ~options:default ~axes
      ~backend:Service.Protocol.Exact ~warm_start:true
  with
  | exception Choreographer.Workbench.Analysis_error msg ->
      Alcotest.(check bool) "names the axis" true
        (has_infix "no_such_rate" msg)
  | _ -> Alcotest.fail "unknown axis accepted"

(* ------------------------------------------------------------------ *)
(* Live daemon over a Unix socket                                      *)
(* ------------------------------------------------------------------ *)

(* One request over a raw connection, so the payload can hold what the
   typed codec refuses to encode.  The receive timeout turns a dead
   daemon worker into a failure instead of a hang. *)
let raw_exchange socket json =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Service.Frame.write fd (Obs.Json.to_string json);
      match Service.Frame.read fd with
      | Some payload -> Service.Protocol.response_of_json (Obs.Json.of_string payload)
      | None -> Alcotest.fail "daemon closed the connection"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "daemon did not answer within 10 s")

let with_server ?(workers = 2) f =
  let socket_path = Filename.temp_file "choreographerd" ".sock" in
  let ledger = Filename.temp_file "choreographerd" ".jsonl" in
  Sys.remove ledger;
  let config =
    {
      Service.Server.socket_path;
      tcp = None;
      workers;
      cache_capacity = 8;
      ledger = Some ledger;
    }
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Service.Server.run ~on_ready:(fun () -> Atomic.set ready true) config)
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not (Atomic.get ready) then Alcotest.fail "server did not come up";
  (* A failed body may have left the daemon wedged (a dead worker never
     checks out), so only a clean run waits for it to stop; otherwise
     the failure is reported instead of hanging the suite. *)
  let clean = ref false in
  Fun.protect
    ~finally:(fun () ->
      (try
         ignore
           (raw_exchange socket_path
              (Service.Protocol.request_to_json Service.Protocol.Shutdown))
       with _ -> ());
      if !clean then Domain.join server;
      if Sys.file_exists ledger then Sys.remove ledger)
    (fun () ->
      let result = f ~socket:socket_path ~ledger in
      clean := true;
      result)

let request_over socket request =
  let conn = Service.Client.connect ~socket () in
  Fun.protect
    ~finally:(fun () -> Service.Client.close conn)
    (fun () -> Service.Client.request conn request)

let test_daemon_solve_byte_identical () =
  let source = mm1k () in
  let direct = Choreographer.Workbench.analyse_pepa_string ~name:"mm1k.pepa" source in
  let expected = Choreographer.Render.pepa_solve direct in
  with_server (fun ~socket ~ledger ->
      let request = solve_request ~name:"mm1k.pepa" source in
      (match request_over socket request with
      | Service.Protocol.Ok_response { output; diagnostics; _ } ->
          Alcotest.(check string) "stdout bytes" expected output;
          Alcotest.(check bool) "solver diagnostics line" true
            (has_prefix "solver: method=" diagnostics)
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      (* The repeat is served from cache — and still byte-identical. *)
      Alcotest.(check string) "repeat bytes" expected
        (response_output (request_over socket request));
      (match request_over socket Service.Protocol.Stats with
      | Service.Protocol.Ok_response { data; _ } ->
          let n field =
            Option.bind (Obs.Json.member "cache" data) (Obs.Json.member field)
            |> Fun.flip Option.bind Obs.Json.to_float
            |> Option.value ~default:(-1.0)
          in
          Alcotest.(check bool) "a cache hit was counted" true (n "hits" >= 1.0);
          Alcotest.(check bool) "one model cached" true (n "entries" = 1.0)
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      (* One ledger record per request, with explicit stage timings on
         the cold solve and none on the cached repeat. *)
      let records = Obs.Ledger.load ~path:ledger in
      let solves =
        List.filter
          (fun (r : Obs.Ledger.record) -> r.Obs.Ledger.tool = "choreographerd solve")
          records
      in
      match solves with
      | [ cold; cached ] ->
          Alcotest.(check bool) "cold run recorded stages" true
            (List.mem_assoc "solve" cold.Obs.Ledger.stages);
          Alcotest.(check (list (pair string (float 0.0))))
            "cached run skipped every stage" [] cached.Obs.Ledger.stages;
          Alcotest.(check bool) "model hash recorded" true
            (String.length cold.Obs.Ledger.model_hash = 32)
      | _ -> Alcotest.failf "expected 2 solve records, found %d" (List.length solves))

let test_daemon_concurrent_clients () =
  let source = mm1k () in
  let variant rate =
    replace_once "arrive = 2.0;" (Printf.sprintf "arrive = %.1f;" rate) source
  in
  let rates = [ 0.5; 1.0; 1.5; 2.5 ] in
  let expected =
    List.map
      (fun r ->
        Choreographer.Render.pepa_solve
          (Choreographer.Workbench.analyse_pepa_string ~name:"mm1k.pepa" (variant r)))
      rates
  in
  with_server ~workers:4 (fun ~socket ~ledger:_ ->
      let clients =
        List.map
          (fun r ->
            Domain.spawn (fun () ->
                response_output
                  (request_over socket (solve_request ~name:"mm1k.pepa" (variant r)))))
          rates
      in
      let outputs = List.map Domain.join clients in
      List.iteri
        (fun i (want, got) ->
          Alcotest.(check string) (Printf.sprintf "client %d deterministic" i) want got)
        (List.combine expected outputs))

let test_daemon_error_and_codes () =
  with_server (fun ~socket ~ledger:_ ->
      (match request_over socket (solve_request ~name:"bad.pepa" "P = nonsense") with
      | Service.Protocol.Error_response { code; message } ->
          Alcotest.(check int) "parse error exits 1" 1 code;
          Alcotest.(check bool) "error: prefix" true
            (has_prefix "error: " message)
      | Service.Protocol.Ok_response _ -> Alcotest.fail "garbage model accepted");
      (* A net-only feature on a PEPA request: sweep rejects nets. *)
      match
        request_over socket
          (Service.Protocol.Sweep
             {
               kind = Service.Protocol.Net;
               name = "x.pepanet";
               source = "...";
               options = default;
               axes = [ { Service.Protocol.target = `Rate "r"; values = [ 1.0 ] } ];
               backend = Service.Protocol.Exact;
               warm_start = true;
             })
      with
      | Service.Protocol.Error_response { code; message = _ } ->
          Alcotest.(check int) "analysis failure code" 2 code
      | Service.Protocol.Ok_response _ -> Alcotest.fail "net sweep accepted")

(* A request the decoder rejects must come back as code 1 without
   taking down the worker that read it: with a single worker, a dead
   one would leave the follow-up stats request unanswered. *)
let test_daemon_survives_hostile_jobs () =
  with_server ~workers:1 (fun ~socket ~ledger:_ ->
      (match raw_exchange socket (with_option "jobs" (Obs.Json.Num 6e18) (solve_json ())) with
      | Service.Protocol.Error_response { code; message } ->
          Alcotest.(check int) "invalid request exits 1" 1 code;
          Alcotest.(check bool) "reported as an invalid request" true
            (has_prefix "error: invalid request: field jobs" message)
      | Service.Protocol.Ok_response _ -> Alcotest.fail "jobs = 6e18 accepted");
      match
        raw_exchange socket (Service.Protocol.request_to_json Service.Protocol.Stats)
      with
      | Service.Protocol.Ok_response _ -> ()
      | Service.Protocol.Error_response { message; _ } ->
          Alcotest.failf "stats failed after the bad request: %s" message)

let test_daemon_http_metrics () =
  with_server (fun ~socket ~ledger:_ ->
      ignore (response_output (request_over socket (solve_request ~name:"mm1k.pepa" (mm1k ()))));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let http_request = "GET /metrics HTTP/1.0\r\nHost: daemon\r\n\r\n" in
      assert (
        Unix.write_substring fd http_request 0 (String.length http_request)
        = String.length http_request);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Unix.close fd;
      let body = Buffer.contents buf in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (has_infix needle body))
        [
          "200 OK";
          "choreographer_requests_total";
          "choreographer_cache_misses_total";
          "choreographer_cache_stage_hits_total";
        ])

let test_daemon_sweep_and_shutdown () =
  with_server (fun ~socket ~ledger:_ ->
      let sweep =
        Service.Protocol.Sweep
          {
            kind = Service.Protocol.Pepa;
            name = "mm1k.pepa";
            source = mm1k ();
            options = default;
            axes = [ { Service.Protocol.target = `Rate "arrive"; values = [ 1.0; 2.0; 3.0 ] } ];
            backend = Service.Protocol.Exact;
            warm_start = true;
          }
      in
      (match request_over socket sweep with
      | Service.Protocol.Ok_response { data; _ } ->
          let points =
            Option.value ~default:Obs.Json.Null (Obs.Json.member "points" data)
          in
          Alcotest.(check int) "grid size" 3 (List.length (Obs.Json.to_list points))
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      (* Clean shutdown: acknowledged, then the socket goes away. *)
      (match request_over socket Service.Protocol.Shutdown with
      | Service.Protocol.Ok_response _ -> ()
      | Service.Protocol.Error_response { message; _ } -> Alcotest.fail message);
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec gone () =
        match Service.Client.connect ~socket () with
        | conn ->
            Service.Client.close conn;
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "daemon still accepting after shutdown"
            else begin
              Unix.sleepf 0.05;
              gone ()
            end
        | exception Service.Client.Connection_error _ -> ()
      in
      gone ())

let suite =
  [
    Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame length codec" `Quick test_frame_length_codec;
    Alcotest.test_case "frame truncated" `Quick test_frame_truncated;
    Alcotest.test_case "frame oversized and HTTP sniff" `Quick test_frame_oversized;
    Alcotest.test_case "protocol round trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "protocol rejects bad counts" `Quick test_protocol_rejects_counts;
    Alcotest.test_case "option wording shared with the CLI" `Quick test_option_wording_shared;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "engine stage cache" `Quick test_engine_stage_cache;
    Alcotest.test_case "engine solve = workbench" `Quick test_engine_solve_matches_workbench;
    Alcotest.test_case "engine query" `Quick test_engine_query;
    Alcotest.test_case "engine error contract" `Quick test_engine_error_contract;
    Alcotest.test_case "ingest" `Quick test_ingest;
    Alcotest.test_case "sweep warm = cold" `Quick test_sweep_warm_equals_cold;
    Alcotest.test_case "sweep axis validation" `Quick test_sweep_axis_validation;
    Alcotest.test_case "daemon solve byte-identical" `Quick test_daemon_solve_byte_identical;
    Alcotest.test_case "daemon concurrent clients" `Quick test_daemon_concurrent_clients;
    Alcotest.test_case "daemon error codes" `Quick test_daemon_error_and_codes;
    Alcotest.test_case "daemon survives a hostile jobs" `Quick test_daemon_survives_hostile_jobs;
    Alcotest.test_case "daemon /metrics" `Quick test_daemon_http_metrics;
    Alcotest.test_case "daemon sweep and shutdown" `Quick test_daemon_sweep_and_shutdown;
  ]
