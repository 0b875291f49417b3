(* Command-line plumbing shared by the Choreographer and Workbench
   front ends: the steady-state method converter and the telemetry
   flags (--log-level, --trace, --metrics). *)

open Cmdliner

(* The option grammars and their error wording live in
   [Service.Protocol], which the daemon decodes the same values with;
   its [Protocol_error] becomes cmdliner's parse error. *)
let protocol_conv parse print =
  let parse s = try Ok (parse s) with Service.Protocol.Protocol_error m -> Error (`Msg m) in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (print v))

let method_conv =
  protocol_conv Service.Protocol.method_of_string Service.Protocol.method_to_string

let method_arg =
  Arg.(
    value
    & opt method_conv None
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Steady-state method: auto, direct, jacobi, gauss-seidel, sor[:omega], power or \
           bicgstab (preconditioned Krylov iteration — usually the fastest exact method \
           on large chains).")

let aggregate_conv =
  let parse s =
    match Markov.Lump.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown aggregation mode %s (valid: none, symmetry, lump, both)"
               s))
  in
  let print fmt m = Format.pp_print_string fmt (Markov.Lump.mode_to_string m) in
  Arg.conv (parse, print)

let aggregate_arg =
  Arg.(
    value
    & opt aggregate_conv Markov.Lump.No_agg
    & info [ "aggregate" ] ~docv:"MODE"
        ~doc:
          "Aggregation before the solve: $(b,none), $(b,symmetry) (collapse \
           permutation-equivalent states of replicated components while exploring), \
           $(b,lump) (solve the ordinarily-lumped quotient chain and disaggregate) or \
           $(b,both).  Every mode reports exactly the same measures: lumping only \
           merges states within one symmetry orbit or with identical local-state \
           labels, so aggregation only shrinks the chain the solver sees.")

(* ------------------------------------------------------------------ *)
(* Fluid approximation                                                 *)
(* ------------------------------------------------------------------ *)

let fluid_conv =
  protocol_conv Service.Protocol.fluid_of_string Service.Protocol.fluid_to_string

let fluid_arg =
  Arg.(
    value
    & opt ~vopt:(Some Fluid.Rk45.default_tolerances) fluid_conv None
    & info [ "fluid" ] ~docv:"RTOL[,ATOL]"
        ~doc:
          "Solve PEPA models and PEPA nets by the fluid-flow ODE approximation \
           (population model + adaptive RK45) instead of a discrete solve, at a cost \
           independent of replica and token counts.  The optional value sets the \
           integrator's relative (and absolute) local-error tolerances, default \
           $(b,1e-8,1e-12); $(b,--fluid=off) is the exact solve, as when the flag is \
           absent.  Results are the deterministic population limit — \
           asymptotically exact as populations grow, not an exact solve — and are \
           labelled as approximations everywhere they are reported.  Models with \
           passive cooperation, and nets with mixed transition priorities, have no \
           fluid interpretation.")

(* ------------------------------------------------------------------ *)
(* Parallel execution                                                  *)
(* ------------------------------------------------------------------ *)

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ | None ->
        Error
          (`Msg
            (Printf.sprintf
               "invalid job count %s (valid: 1 for the sequential solver, N >= 2 for N \
                domains, 0 to auto-detect)"
               s))
  in
  let print fmt n = Format.pp_print_int fmt n in
  Arg.conv (parse, print)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of domains (OS threads) for the iterative steady-state solvers \
           ($(b,jacobi), $(b,power) and $(b,bicgstab)) on chains of 4096 states or \
           more.  Everything else (parsing, state-space exploration, CSR assembly, \
           Gauss-Seidel, SOR and the direct solver) is sequential at any job count.  \
           $(b,1) (the default) keeps the solve sequential; $(b,0) auto-detects the \
           machine's core count.  Results are deterministic at any job count: \
           BiCGStab is bitwise identical to the sequential run, and Jacobi and power \
           probabilities agree to within the solver tolerance.")

let print_fluid_stats (stats : Fluid.Rk45.stats) =
  Printf.eprintf "%s%!" (Choreographer.Render.fluid_stats_line stats)

(* ------------------------------------------------------------------ *)
(* Telemetry flags                                                     *)
(* ------------------------------------------------------------------ *)

let level_conv =
  let parse s =
    match Obs.Config.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown log level %s (quiet|info|debug)" s))
  in
  let print fmt l = Format.pp_print_string fmt (Obs.Config.level_to_string l) in
  Arg.conv (parse, print)

let log_level_arg =
  Arg.(
    value
    & opt (some level_conv) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Diagnostic verbosity: quiet, info or debug.  info and above echo closing \
              tracing spans and progress to stderr.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON file of the run (open in chrome://tracing \
              or Perfetto).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write collected metrics (counters, histograms, residual trajectory) as \
              JSON or Prometheus text (see $(b,--metrics-format)).")

let metrics_format_conv =
  let parse s =
    match Obs.Sink.metrics_format_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown metrics format %s (json|prom)" s))
  in
  let print fmt f =
    Format.pp_print_string fmt
      (match f with Obs.Sink.Json_format -> "json" | Obs.Sink.Prometheus_format -> "prom")
  in
  Arg.conv (parse, print)

let metrics_format_arg =
  Arg.(
    value
    & opt metrics_format_conv Obs.Sink.Json_format
    & info [ "metrics-format" ] ~docv:"FORMAT"
        ~doc:"Format of the $(b,--metrics) dump: $(b,json) (pretty-printed, the default) \
              or $(b,prom) (Prometheus exposition text format).")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"Append this run's flight record to FILE instead of the default ledger \
              (\\$CHOREOGRAPHER_LEDGER or ~/.choreographer/runs.jsonl).  Inspect it \
              with $(b,choreographer obs).")

let no_ledger_arg =
  Arg.(
    value & flag
    & info [ "no-ledger" ]
        ~doc:"Do not record this run in the ledger.  Setting the \
              \\$CHOREOGRAPHER_NO_LEDGER environment variable has the same effect \
              (used by the test suite).")

let positive_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "%s %s is not a positive number" what s))
  in
  (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let sample_arg =
  Arg.(
    value
    & opt ~vopt:(Some Obs.Sampler.default_interval_s)
        (some (conv (positive_float_conv "sampling interval")))
        None
    & info [ "sample" ] ~docv:"SECONDS"
        ~doc:"Run a background sampler domain during the command: every SECONDS \
              (default $(b,0.01)) it records heap size, GC counts, the live solver \
              residual and the exploration frontier as time series, which the metrics \
              dump, the HTML report and the Chrome trace then chart.")

(* ------------------------------------------------------------------ *)
(* Run ledger plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* The ledger records one JSON line per run.  [setup] decides the
   destination; subcommands that analyse a model call [arm_ledger] with
   their identity, and the [at_exit] hook appends the record — so error
   exits are recorded too, with the status the error reporters left in
   [run_status]. *)
let ledger_path : string option ref = ref None
let ledger_armed : (string * string * string * (string * string) list) option ref = ref None
let run_status = ref "ok"
let set_run_status s = run_status := s

let model_hash path =
  match Digest.to_hex (Digest.file path) with
  | hash -> hash
  | exception Sys_error _ -> ""

(* Option stringifiers for ledger records — the same normalised forms
   the daemon uses in cache keys and its own ledger records. *)
let method_string = Service.Protocol.method_to_string
let fluid_string = Service.Protocol.fluid_to_string

let arm_ledger ~tool ~model ~options =
  if !ledger_path <> None then begin
    let hash = if model = "-" then "" else model_hash model in
    ledger_armed := Some (tool, model, hash, options)
  end

let append_ledger () =
  match (!ledger_path, !ledger_armed) with
  | Some path, Some (tool, model, hash, options) -> (
      let record =
        Obs.Ledger.capture ~tool ~model ~model_hash:hash ~options ~exit_status:!run_status ()
      in
      let warn msg =
        Printf.eprintf "warning: could not append to ledger %s: %s\n%!" path msg
      in
      try Obs.Ledger.append ~path record with
      | Sys_error msg -> warn msg
      | Unix.Unix_error (e, _, _) -> warn (Unix.error_message e))
  | _ -> ()

(* Where the daemon should append its per-request records: the
   destination the telemetry flags resolved to, or [None] when
   recording is off.  The daemon never uses the [at_exit] capture
   path — it emits one record per served request instead. *)
let daemon_ledger_path () = !ledger_path

let ledger_disabled_by_env () =
  match Sys.getenv_opt "CHOREOGRAPHER_NO_LEDGER" with
  | Some "" | None -> false
  | Some _ -> true

(* Configure the process-global telemetry state.  File writers run
   [at_exit] so traces survive error exits too; [at_exit] runs hooks in
   reverse registration order, so the sampler (registered last) stops
   first and the sinks and the ledger see its final samples. *)
let setup_telemetry level trace metrics metrics_format ledger no_ledger sample =
  (match level with Some l -> Obs.Config.set_level l | None -> ());
  let ledger_on = (not no_ledger) && not (ledger_disabled_by_env ()) in
  if ledger_on then
    ledger_path :=
      Some (match ledger with Some p -> p | None -> Obs.Ledger.default_path ());
  if level <> None || trace <> None || metrics <> None || sample <> None || ledger_on then
    Obs.Config.enable ();
  if Obs.Config.at_least Obs.Config.Info then Obs.Sink.install_stderr ();
  at_exit append_ledger;
  (match trace with
  | Some path -> at_exit (fun () -> Obs.Sink.write_chrome_trace ~path)
  | None -> ());
  (match metrics with
  | Some path -> at_exit (fun () -> Obs.Sink.write_metrics ~format:metrics_format ~path ())
  | None -> ());
  match sample with
  | Some interval_s ->
      let sampler = Obs.Sampler.start ~interval_s () in
      at_exit (fun () -> Obs.Sampler.stop sampler)
  | None -> ()

(* Shared per-process setup: telemetry sinks plus the domain-pool
   default.  Evaluates to the resolved job count ([--jobs 0] becomes
   the detected core count) so subcommands can also thread it
   explicitly where an API takes [?jobs]. *)
let setup level trace metrics metrics_format ledger no_ledger sample jobs =
  setup_telemetry level trace metrics metrics_format ledger no_ledger sample;
  let jobs = Par.resolve jobs in
  Par.set_jobs jobs;
  jobs

let telemetry_term =
  Term.(
    const setup $ log_level_arg $ trace_arg $ metrics_arg $ metrics_format_arg $ ledger_arg
    $ no_ledger_arg $ sample_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* Solver diagnostics                                                  *)
(* ------------------------------------------------------------------ *)

let print_solver_stats () =
  match Markov.Steady.last_stats () with
  | Some stats -> Printf.eprintf "%s%!" (Choreographer.Render.solver_stats_line stats)
  | None -> ()

(* Non-convergence is distinguished from ordinary model errors (exit 1)
   so scripted callers can retry with another method or more
   iterations.  The renderings live in [Service.Errors] so the daemon
   ships the exact same bytes and exit codes over the wire. *)
let exit_did_not_converge = Service.Errors.analysis_failure_code

let report_rendered (r : Service.Errors.rendered) =
  Printf.eprintf "%s%!" r.Service.Errors.message;
  set_run_status r.Service.Errors.status;
  exit r.Service.Errors.code

let report_did_not_converge ~method_used ~iterations ~residual =
  report_rendered (Service.Errors.did_not_converge ~method_used ~iterations ~residual)

(* Invalid option values (unknown --method, --aggregate, --fluid forms,
   ...) exit 2 rather than cmdliner's default 124, so scripts can treat
   "the request was wrong" uniformly.  The converters above enumerate
   the valid choices in their error messages. *)
let eval_cli ?argv cmd =
  match Cmdliner.Cmd.eval_value ?argv cmd with
  | Ok (`Ok ()) | Ok `Version | Ok `Help -> 0
  | Error (`Parse | `Term) -> 2
  | Error `Exn -> 125

let report_did_not_reach_steady ~steps ~t ~dx_norm =
  report_rendered (Service.Errors.did_not_reach_steady ~steps ~t ~dx_norm)

let report_step_budget_exhausted ~steps ~t ~error_estimate =
  report_rendered (Service.Errors.step_budget_exhausted ~steps ~t ~error_estimate)
