(* The PEPA Workbench for PEPA nets, command-line edition: parse, derive
   the state space, solve the CTMC, and report measures for .pepa and
   .pepanet models. *)

open Cmdliner

let is_net_file path net = Cli_support.kind_of path net = Service.Protocol.Net

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc:"A .pepa or .pepanet file.")

let net_arg =
  Arg.(value & flag & info [ "net" ] ~doc:"Force PEPA net interpretation regardless of suffix.")

let handle_errors = Cli_support.handle_errors

module W = Choreographer.Workbench

(* [solve] and [query] build the request [choreographer client] sends
   and answer it on an in-process engine, so both tools print the same
   bytes and exit with the same codes. *)
let solve_cmd =
  let run jobs path net method_ aggregate fluid =
    let options = Cli_support.protocol_options ~jobs method_ aggregate fluid false in
    Cli_support.print_answer
      (Cli_support.answer_locally ~tool:"workbench solve" ~model:path
         (Cli_support.solve_request ~path ~net options))
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Steady-state solution and throughput of every action type.")
    Term.(
      const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ Cli_support.method_arg
      $ Cli_support.aggregate_arg $ Cli_support.fluid_arg)

(* The other verbs derive the state space through the derive stage of
   the [Workbench] compositions, so model errors (parse, semantic,
   passive rates, state caps) get the error contract [solve] has. *)
type derived =
  | Pepa_space of Pepa.Statespace.t * string list  (* with the model's warnings *)
  | Net_space of Pepanet.Net_statespace.t * string list

let derive ?(symmetry = false) path net =
  let name = Filename.basename path in
  let source = W.Source (Cli_support.read_source path) in
  if is_net_file path net then
    let space, warnings = W.net_derived ~name ~symmetry source in
    Net_space (space, warnings)
  else
    let space, warnings = W.pepa_derived ~name ~symmetry source in
    Pepa_space (space, warnings)

let n_states = function
  | Pepa_space (space, _) -> Pepa.Statespace.n_states space
  | Net_space (space, _) -> Pepanet.Net_statespace.n_markings space

let state_label = function
  | Pepa_space (space, _) -> Pepa.Statespace.state_label space
  | Net_space (space, _) -> Pepanet.Net_statespace.marking_label space

let ctmc = function
  | Pepa_space (space, _) -> Pepa.Statespace.ctmc space
  | Net_space (space, _) -> Pepanet.Net_statespace.ctmc space

let statespace_cmd =
  let limit_arg =
    Arg.(value & opt int 200 & info [ "limit" ] ~docv:"N" ~doc:"Print at most N states.")
  in
  let run _jobs path net limit aggregate =
    let symmetry = Markov.Lump.symmetry_enabled aggregate in
    handle_errors (fun () ->
        let space = derive ~symmetry path net in
        let prefix =
          match space with
          | Pepa_space (space, _) ->
              Format.printf "%a@." Pepa.Statespace.pp_summary space;
              "S"
          | Net_space (space, _) ->
              Format.printf "%a@." Pepanet.Net_statespace.pp_summary space;
              "M"
        in
        for i = 0 to min (limit - 1) (n_states space - 1) do
          Printf.printf "%s%-4d %s\n" prefix i (state_label space i)
        done)
  in
  Cmd.v
    (Cmd.info "statespace" ~doc:"Derive and print the reachable state space.")
    Term.(
      const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ limit_arg
      $ Cli_support.aggregate_arg)

let check_cmd =
  let run _jobs path net =
    handle_errors (fun () ->
        let space = derive path net in
        let warnings, deadlocks =
          match space with
          | Pepa_space (space, warnings) ->
              Format.printf "%a@." Pepa.Analysis.pp_report space;
              (warnings, Pepa.Statespace.deadlocks space)
          | Net_space (space, warnings) ->
              Format.printf "%a@." Pepanet.Net_statespace.pp_summary space;
              (warnings, Pepanet.Net_statespace.deadlocks space)
        in
        List.iter (Printf.printf "warning: %s\n") warnings;
        List.iter (fun i -> Printf.printf "deadlock: %s\n" (state_label space i)) deadlocks)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Static checks, deadlock search and model warnings.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg)

let transient_cmd =
  let time_arg =
    Arg.(required & opt (some float) None & info [ "t"; "time" ] ~docv:"T" ~doc:"Time horizon.")
  in
  let run _jobs path net time =
    handle_errors (fun () ->
        let space = derive path net in
        let pi =
          match space with
          | Pepa_space (space, _) -> Pepa.Statespace.transient space ~time
          | Net_space (space, _) -> Pepanet.Net_statespace.transient space ~time
        in
        Array.iteri
          (fun i p -> if p > 1e-9 then Printf.printf "%-50s %.6f\n" (state_label space i) p)
          pi)
  in
  Cmd.v
    (Cmd.info "transient" ~doc:"Transient state probabilities at a time horizon.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ time_arg)

let export_cmd =
  let basename_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"BASENAME"
          ~doc:"Basename for the .tra/.sta/.lab files.")
  in
  let run _jobs path net basename =
    handle_errors (fun () ->
        let space = derive path net in
        let labels = List.init (n_states space) (fun i -> (state_label space i, [ i ])) in
        let written = Markov.Prism.export ~labels ~initial:0 ~basename (ctmc space) in
        List.iter (Printf.printf "wrote %s\n") written)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the derived CTMC in PRISM explicit-state format.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ basename_arg)

let passage_cmd =
  let action_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "a"; "action" ] ~docv:"ACTION"
          ~doc:"Passage from the states enabling ACTION to the states reached by it.")
  in
  let times_arg =
    Arg.(
      value
      & opt (list float) [ 0.5; 1.0; 2.0; 4.0; 8.0 ]
      & info [ "t"; "times" ] ~docv:"T1,T2,..." ~doc:"Time points for the CDF.")
  in
  let report chain sources targets times action =
    if sources = [] then begin
      Printf.eprintf "error: no state enables %s\n" action;
      exit 1
    end;
    Printf.printf "completion probability: %.6f\n"
      (Markov.Passage.completion_probability chain ~sources ~targets);
    Printf.printf "mean passage time: %.6f\n" (Markov.Passage.mean chain ~sources ~targets);
    List.iter
      (fun (t, p) -> Printf.printf "F(%g) = %.6f\n" t p)
      (Markov.Passage.cdf_curve chain ~sources ~targets ~times)
  in
  let run _jobs path net times action =
    handle_errors (fun () ->
        let space = derive path net in
        let sources, targets =
          match space with
          | Pepa_space (space, _) -> Pepa.Analysis.passage_endpoints space action
          | Net_space (space, _) -> Pepanet.Net_measures.passage_endpoints space action
        in
        report (ctmc space) (List.map (fun s -> (s, 1.0)) sources) targets times action)
  in
  Cmd.v
    (Cmd.info "passage"
       ~doc:"First-passage-time analysis around an action type.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ times_arg $ action_arg)

let graph_cmd =
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the dot graph here (default: stdout).")
  in
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("statespace", `Statespace); ("structure", `Structure) ]) `Statespace
      & info [ "k"; "kind" ] ~docv:"KIND"
          ~doc:"What to draw: the reachable statespace, or (for nets) the net structure.")
  in
  let run _jobs path net output kind =
    handle_errors (fun () ->
        let dot =
          if kind = `Structure && is_net_file path net then
            Choreographer.Graphviz.net_structure
              (W.parse_net ~name:(Filename.basename path) (Cli_support.read_source path))
          else
            match derive path net with
            | Pepa_space (space, _) -> Choreographer.Graphviz.pepa_statespace space
            | Net_space (space, _) -> Choreographer.Graphviz.net_statespace space
        in
        match output with
        | Some file ->
            Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc dot);
            Printf.printf "wrote %s\n" file
        | None -> print_string dot)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Render the state space (or net structure) as Graphviz dot.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ output_arg $ kind_arg)

let query_cmd =
  let query_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "Measure expression, e.g. 'throughput(request)' or \
             'passage(request -> response).mean'.")
  in
  let run jobs path net query =
    let options = { Service.Protocol.default_options with jobs } in
    Cli_support.print_answer
      (Cli_support.answer_locally ~tool:"workbench query" ~model:path
         (Cli_support.query_request ~path ~net ~query options))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate a measure expression against a solved model.")
    Term.(const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ query_arg)

let () =
  let doc = "the PEPA Workbench for PEPA nets" in
  let info = Cmd.info "pepa-workbench" ~version:"1.0.0" ~doc in
  exit
    (Cli_support.eval_cli
       (Cmd.group info
          [ solve_cmd; statespace_cmd; check_cmd; transient_cmd; export_cmd; passage_cmd; graph_cmd; query_cmd ]))
