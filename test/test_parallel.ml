(* The multicore engine.  Two layers under test: the [Par] primitives
   (pool, parallel_for, deterministic sums) and the determinism
   contract of their one consumer, the iterative steady-state solvers —
   at any job count an analysis must render exactly the text of the
   sequential run, and the steady vector must agree with it. *)

let jobs = 4

(* The process-wide default is what a solve without [?jobs] uses;
   restore it so other suites stay on the sequential path. *)
let with_jobs n f =
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Par primitives                                                      *)
(* ------------------------------------------------------------------ *)

let test_resolve () =
  Alcotest.(check int) "1 is sequential" 1 (Par.resolve 1);
  Alcotest.(check int) "explicit count" 5 (Par.resolve 5);
  Alcotest.(check bool) "0 auto-detects to a positive count" true (Par.resolve 0 >= 1);
  Alcotest.check_raises "negative job counts rejected"
    (Invalid_argument "Par.resolve: jobs must be >= 0") (fun () ->
      ignore (Par.resolve (-3)));
  Alcotest.(check bool) "a pool of one is no pool" true (Par.pool ~jobs:1 () = None);
  with_jobs 3 (fun () -> Alcotest.(check int) "set_jobs feeds the default" 3 (Par.jobs ()))

let require_pool n =
  match Par.pool ~jobs:n () with
  | Some p -> p
  | None -> Alcotest.failf "expected a pool of %d" n

let test_parallel_for () =
  let p = require_pool 3 in
  let n = 10_000 in
  let hits = Array.make n 0 in
  Par.parallel_for p ~chunk:7 ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check bool) "every index covered exactly once" true
    (Array.for_all (( = ) 1) hits)

let test_parallel_chunks () =
  (* Every chunk ordinal runs exactly once — callers index per-chunk
     scratch by ordinal, so this holds even on a pool of one. *)
  List.iter
    (fun size ->
      let p = require_pool size in
      let seen = Array.make 64 0 in
      let n_chunks =
        Par.parallel_chunks p ~chunk:17 ~lo:0 ~hi:1000 (fun ~chunk lo hi ->
            seen.(chunk) <- seen.(chunk) + (hi - lo))
      in
      Alcotest.(check int) "chunk count covers the range" ((1000 + 16) / 17) n_chunks;
      let total = Array.fold_left ( + ) 0 seen in
      Alcotest.(check int) "chunks partition the range" 1000 total;
      for c = 0 to n_chunks - 1 do
        if seen.(c) = 0 then Alcotest.failf "chunk %d never ran" c
      done)
    [ 2; 3 ]

let test_sum_floats_deterministic () =
  let p = require_pool 4 in
  let partial lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. (1.0 /. float_of_int (i + 1))
    done;
    !s
  in
  let a = Par.sum_floats p ~lo:0 ~hi:100_000 partial in
  let b = Par.sum_floats p ~lo:0 ~hi:100_000 partial in
  Alcotest.(check bool) "repeated parallel sums bitwise equal" true (a = b);
  Alcotest.(check (float 1e-9)) "close to the sequential sum" (partial 0 100_000) a

let test_pool_exception () =
  let p = require_pool 3 in
  Alcotest.check_raises "a worker exception reaches the caller" Exit (fun () ->
      Par.parallel_for p ~chunk:1 ~lo:0 ~hi:100 (fun lo _ -> if lo = 57 then raise Exit));
  (* The pool survives a failed batch. *)
  let hits = Atomic.make 0 in
  Par.parallel_for p ~lo:0 ~hi:100 (fun lo hi -> ignore (Atomic.fetch_and_add hits (hi - lo)));
  Alcotest.(check int) "pool usable after the failure" 100 (Atomic.get hits)

(* ------------------------------------------------------------------ *)
(* Pipeline determinism: jobs > 1 must reproduce jobs = 1 exactly      *)
(* ------------------------------------------------------------------ *)

let max_abs_diff a b =
  Alcotest.(check int) "steady vectors same length" (Array.length a) (Array.length b);
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

module W = Choreographer.Workbench
module R = Choreographer.Render

(* The CLI's stdout for an analysis, or the exception that ended it:
   random terms may deadlock, and the failure must not depend on jobs
   either. *)
let rendered f = try f () with exn -> "error: " ^ Printexc.to_string exn

let pepa_text ?aggregate ~jobs source =
  rendered (fun () -> R.pepa_solve (W.analyse_pepa_string ?aggregate ~jobs source))

let net_text ?aggregate ~jobs net =
  rendered (fun () -> R.net_solve (W.analyse_net ?aggregate ~jobs net))

let aggregates = [ Markov.Lump.No_agg; Markov.Lump.Both ]

let check_pepa_deterministic name source =
  List.iter
    (fun aggregate ->
      let tag = Printf.sprintf "%s (%s)" name (Markov.Lump.mode_to_string aggregate) in
      let seq = W.analyse_pepa_string ~aggregate ~jobs:1 source in
      let par = W.analyse_pepa_string ~aggregate ~jobs source in
      Alcotest.(check string) (tag ^ ": rendered output identical") (R.pepa_solve seq)
        (R.pepa_solve par);
      Alcotest.(check bool) (tag ^ ": steady vector within 1e-10") true
        (max_abs_diff seq.W.distribution par.W.distribution <= 1e-10))
    aggregates

let check_net_deterministic name net =
  List.iter
    (fun aggregate ->
      let tag = Printf.sprintf "%s (%s)" name (Markov.Lump.mode_to_string aggregate) in
      Alcotest.(check string) (tag ^ ": rendered output identical")
        (net_text ~aggregate ~jobs:1 net)
        (net_text ~aggregate ~jobs net))
    aggregates

let e6 n =
  Printf.sprintf
    "Proc = (task, 1.0).(swap, 2.0).Proc;\n\
     Srv = (task, infty).(log, 5.0).Srv;\n\
     system (Proc[%d]) <task> Srv;"
    n

let test_scenarios_deterministic () =
  check_pepa_deterministic "roaming" (Scenarios.Roaming.pepa_source ~replicas:4);
  check_pepa_deterministic "file-protocol" Scenarios.File_protocol.pepa_source;
  check_pepa_deterministic "e6-9" (e6 9);
  check_net_deterministic "roaming-net"
    (Pepanet.Net_parser.net_of_string Scenarios.Roaming.pepanet_source);
  check_net_deterministic "instant-message"
    (Pepanet.Net_parser.net_of_string Scenarios.Instant_message.pepanet_source)

let test_extracted_nets_deterministic () =
  (* Nets that only exist as in-memory structures: the PDA handover and
     the code-mobility agent. *)
  let pda = Scenarios.Pda.extraction () in
  check_net_deterministic "pda" pda.Extract.Ad_to_pepanet.net;
  check_net_deterministic "code-mobility"
    (Scenarios.Code_mobility.mobile_agent_net Scenarios.Code_mobility.default_parameters)

(* Every committed example model renders byte-identically at jobs = 1
   and jobs = 2 through the same Workbench + Render path the
   [workbench solve] CLI takes, with and without aggregation.  The state
   cap keeps the unaggregated replicated pools (well over a million
   states) quick: their cap error must not depend on jobs either. *)
let test_assets_render_identically () =
  let dir = List.find Sys.file_exists [ "../examples/assets"; "examples/assets" ] in
  let models =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           Filename.check_suffix f ".pepa" || Filename.check_suffix f ".pepanet")
  in
  Alcotest.(check bool) "found the example models" true (List.length models >= 5);
  List.iter
    (fun file ->
      let source = In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all in
      let text ~aggregate ~jobs =
        rendered (fun () ->
            if Filename.check_suffix file ".pepanet" then
              R.net_solve
                (W.analyse_net_string ~name:file ~max_markings:50_000 ~aggregate ~jobs source)
            else
              R.pepa_solve
                (W.analyse_pepa_string ~name:file ~max_states:50_000 ~aggregate ~jobs source))
      in
      List.iter
        (fun aggregate ->
          Alcotest.(check string)
            (Printf.sprintf "%s (%s): jobs 1 and 2 render identically" file
               (Markov.Lump.mode_to_string aggregate))
            (text ~aggregate ~jobs:1) (text ~aggregate ~jobs:2))
        aggregates)
    models

(* A model big enough to cross the solvers' pool threshold: 2^13
   states (the solvers parallelise beyond 4096). *)
let test_large_model_parallel_paths () =
  let chain = Pepa.Statespace.ctmc (Pepa.Statespace.of_string (e6 12)) in
  let check_method name method_ =
    let pi_seq = Markov.Steady.solve ~method_ chain in
    let pi_par = Markov.Steady.solve ~method_ ~jobs chain in
    Alcotest.(check bool) (name ^ " parallel within 1e-10") true
      (max_abs_diff pi_seq pi_par <= 1e-10)
  in
  check_method "jacobi" Markov.Steady.Jacobi;
  check_method "power" Markov.Steady.Power;
  (* Gauss-Seidel stays sequential at any job count, and BiCGStab
     reduces over a fixed chunk grid: both bitwise equal. *)
  List.iter
    (fun (name, method_) ->
      let pi_seq = Markov.Steady.solve ~method_ chain in
      let pi_par = Markov.Steady.solve ~method_ ~jobs chain in
      Alcotest.(check bool) (name ^ " independent of jobs") true (pi_seq = pi_par))
    [ ("gauss-seidel", Markov.Steady.Gauss_seidel); ("bicgstab", Markov.Steady.Bicgstab) ]

(* [Steady.last_stats] is what a daemon worker reports after its own
   solve, so a solve on another domain in between must not show
   through.  Domain A solves first and reads last; B solves in
   between with a different method. *)
let test_last_stats_per_domain () =
  let chain () =
    Pepa.Statespace.ctmc
      (Pepa.Statespace.of_string (Scenarios.Tandem.source ~stations:2 ~capacity:5))
  in
  let chain_a = chain () and chain_b = chain () in
  let a_solved = Atomic.make false and b_solved = Atomic.make false in
  let wait flag =
    while not (Atomic.get flag) do
      Domain.cpu_relax ()
    done
  in
  let method_of stats =
    Option.map (fun s -> Markov.Steady.method_name s.Markov.Steady.method_used) stats
  in
  let a =
    Domain.spawn (fun () ->
        ignore (Markov.Steady.solve ~method_:Markov.Steady.Gauss_seidel chain_a);
        Atomic.set a_solved true;
        wait b_solved;
        method_of (Markov.Steady.last_stats ()))
  in
  let b =
    Domain.spawn (fun () ->
        wait a_solved;
        ignore (Markov.Steady.solve ~method_:Markov.Steady.Bicgstab chain_b);
        Atomic.set b_solved true;
        method_of (Markov.Steady.last_stats ()))
  in
  let seen_a = Domain.join a and seen_b = Domain.join b in
  Alcotest.(check (option string)) "domain A sees its own solve" (Some "gauss-seidel") seen_a;
  Alcotest.(check (option string)) "domain B sees its own solve" (Some "bicgstab") seen_b;
  Alcotest.(check (option string)) "a fresh domain has solved nothing" None
    (Domain.join (Domain.spawn (fun () -> method_of (Markov.Steady.last_stats ()))))

(* ------------------------------------------------------------------ *)
(* Random small PEPA terms                                             *)
(* ------------------------------------------------------------------ *)

let gen_model =
  let open QCheck2.Gen in
  let action = oneofl [ "a"; "b"; "c" ] in
  let rate = 1 -- 40 >|= fun r -> float_of_int r /. 10.0 in
  let component name =
    list_size (1 -- 3) (pair action rate) >|= fun steps ->
    Printf.sprintf "%s = %s%s;" name
      (String.concat ""
         (List.map (fun (a, r) -> Printf.sprintf "(%s, %.1f)." a r) steps))
      name
  in
  let coop = oneofl [ "<>"; "<a>"; "<b>"; "<a, b>"; "<a, b, c>" ] in
  let replicas = 1 -- 3 in
  component "P" >>= fun p ->
  component "Q" >>= fun q ->
  coop >>= fun set ->
  replicas >>= fun np ->
  replicas >|= fun nq ->
  Printf.sprintf "%s\n%s\nsystem (P[%d]) %s (Q[%d]);" p q np set nq

let prop_random_terms_deterministic =
  QCheck2.Test.make ~name:"random PEPA terms explore identically at jobs = 3" ~count:60
    ~print:(fun s -> s)
    gen_model
    (fun source -> pepa_text ~jobs:1 source = pepa_text ~jobs:3 source)

(* ------------------------------------------------------------------ *)
(* CLI validation                                                      *)
(* ------------------------------------------------------------------ *)

let test_jobs_cli_validation () =
  let cmd =
    Cmdliner.Cmd.v (Cmdliner.Cmd.info "probe")
      Cmdliner.Term.(const (fun _jobs -> ()) $ Cli_support.telemetry_term)
  in
  let eval argv = Cli_support.eval_cli ~argv cmd in
  Fun.protect
    ~finally:(fun () -> Par.set_jobs 1)
    (fun () ->
      Alcotest.(check int) "non-numeric --jobs exits 2" 2 (eval [| "probe"; "--jobs"; "banana" |]);
      Alcotest.(check int) "negative --jobs exits 2" 2 (eval [| "probe"; "--jobs=-3" |]);
      Alcotest.(check int) "--jobs 2 accepted" 0 (eval [| "probe"; "--jobs"; "2" |]);
      Alcotest.(check int) "resolved count installed" 2 (Par.jobs ());
      Alcotest.(check int) "--jobs 0 auto-detects" 0 (eval [| "probe"; "-j"; "0" |]);
      Alcotest.(check bool) "auto-detected count positive" true (Par.jobs () >= 1));
  match Cmdliner.Arg.conv_parser Cli_support.jobs_conv "banana" with
  | Error (`Msg m) ->
      Alcotest.(check bool) "parse error enumerates the valid forms" true
        (contains_sub m "valid:")
  | Ok _ -> Alcotest.fail "banana must not parse as a job count"

let suite =
  [
    Alcotest.test_case "resolve and defaults" `Quick test_resolve;
    Alcotest.test_case "parallel_for covers the range" `Quick test_parallel_for;
    Alcotest.test_case "parallel_chunks runs every ordinal" `Quick test_parallel_chunks;
    Alcotest.test_case "parallel sums are deterministic" `Quick test_sum_floats_deterministic;
    Alcotest.test_case "worker exceptions propagate" `Quick test_pool_exception;
    Alcotest.test_case "scenario pipelines are deterministic" `Slow test_scenarios_deterministic;
    Alcotest.test_case "extracted nets are deterministic" `Quick test_extracted_nets_deterministic;
    Alcotest.test_case "large-model parallel paths" `Slow test_large_model_parallel_paths;
    Alcotest.test_case "example models render identically at jobs 1 and 2" `Quick
      test_assets_render_identically;
    Alcotest.test_case "solver diagnostics are per domain" `Quick test_last_stats_per_domain;
    QCheck_alcotest.to_alcotest prop_random_terms_deterministic;
    Alcotest.test_case "--jobs validation" `Quick test_jobs_cli_validation;
  ]
