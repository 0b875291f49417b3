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

let statespace_cmd =
  let limit_arg =
    Arg.(value & opt int 200 & info [ "limit" ] ~docv:"N" ~doc:"Print at most N states.")
  in
  let run _jobs path net limit aggregate =
    let symmetry = Markov.Lump.symmetry_enabled aggregate in
    handle_errors (fun () ->
        if is_net_file path net then begin
          let space = Pepanet.Net_statespace.of_file ~symmetry path in
          Format.printf "%a@." Pepanet.Net_statespace.pp_summary space;
          for i = 0 to min (limit - 1) (Pepanet.Net_statespace.n_markings space - 1) do
            Printf.printf "M%-4d %s\n" i (Pepanet.Net_statespace.marking_label space i)
          done
        end
        else begin
          let space =
            Pepa.Statespace.of_string ~symmetry
              (In_channel.with_open_bin path In_channel.input_all)
          in
          Format.printf "%a@." Pepa.Statespace.pp_summary space;
          for i = 0 to min (limit - 1) (Pepa.Statespace.n_states space - 1) do
            Printf.printf "S%-4d %s\n" i (Pepa.Statespace.state_label space i)
          done
        end)
  in
  Cmd.v
    (Cmd.info "statespace" ~doc:"Derive and print the reachable state space.")
    Term.(
      const run $ Cli_support.telemetry_term $ file_arg $ net_arg $ limit_arg
      $ Cli_support.aggregate_arg)

let check_cmd =
  let run _jobs path net =
    handle_errors (fun () ->
        if is_net_file path net then begin
          let compiled = Pepanet.Net_compile.of_file path in
          let space = Pepanet.Net_statespace.build compiled in
          Format.printf "%a@." Pepanet.Net_statespace.pp_summary space;
          List.iter (Printf.printf "warning: %s\n") (Pepanet.Net_compile.warnings compiled);
          List.iter
            (fun i -> Printf.printf "deadlock: %s\n" (Pepanet.Net_statespace.marking_label space i))
            (Pepanet.Net_statespace.deadlocks space)
        end
        else begin
          let model =
            Pepa.Parser.model_of_string (In_channel.with_open_bin path In_channel.input_all)
          in
          let env = Pepa.Env.of_model model in
          let space = Pepa.Statespace.build (Pepa.Compile.compile env) in
          Format.printf "%a@." Pepa.Analysis.pp_report space;
          List.iter (Printf.printf "warning: %s\n") (Pepa.Env.warnings env);
          List.iter
            (fun i -> Printf.printf "deadlock: %s\n" (Pepa.Statespace.state_label space i))
            (Pepa.Statespace.deadlocks space)
        end)
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
        if is_net_file path net then begin
          let space = Pepanet.Net_statespace.of_file path in
          let pi = Pepanet.Net_statespace.transient space ~time in
          Array.iteri
            (fun i p ->
              if p > 1e-9 then
                Printf.printf "%-50s %.6f\n" (Pepanet.Net_statespace.marking_label space i) p)
            pi
        end
        else begin
          let space =
            Pepa.Statespace.of_string (In_channel.with_open_bin path In_channel.input_all)
          in
          let pi = Pepa.Statespace.transient space ~time in
          Array.iteri
            (fun i p ->
              if p > 1e-9 then
                Printf.printf "%-50s %.6f\n" (Pepa.Statespace.state_label space i) p)
            pi
        end)
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
        let chain, label_groups =
          if is_net_file path net then begin
            let space = Pepanet.Net_statespace.of_file path in
            let labels =
              List.init (Pepanet.Net_statespace.n_markings space) (fun i ->
                  (Pepanet.Net_statespace.marking_label space i, [ i ]))
            in
            (Pepanet.Net_statespace.ctmc space, labels)
          end
          else begin
            let space =
              Pepa.Statespace.of_string (In_channel.with_open_bin path In_channel.input_all)
            in
            let labels =
              List.init (Pepa.Statespace.n_states space) (fun i ->
                  (Pepa.Statespace.state_label space i, [ i ]))
            in
            (Pepa.Statespace.ctmc space, labels)
          end
        in
        let written = Markov.Prism.export ~labels:label_groups ~initial:0 ~basename chain in
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
        let chain, (sources, targets) =
          if is_net_file path net then
            let space = Pepanet.Net_statespace.of_file path in
            ( Pepanet.Net_statespace.ctmc space,
              Pepanet.Net_measures.passage_endpoints space action )
          else
            let space =
              Pepa.Statespace.of_string (In_channel.with_open_bin path In_channel.input_all)
            in
            (Pepa.Statespace.ctmc space, Pepa.Analysis.passage_endpoints space action)
        in
        report chain (List.map (fun s -> (s, 1.0)) sources) targets times action)
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
          if is_net_file path net then begin
            match kind with
            | `Structure -> Choreographer.Graphviz.net_structure (Pepanet.Net_parser.net_of_file path)
            | `Statespace -> Choreographer.Graphviz.net_statespace (Pepanet.Net_statespace.of_file path)
          end
          else
            Choreographer.Graphviz.pepa_statespace
              (Pepa.Statespace.of_string (In_channel.with_open_bin path In_channel.input_all))
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
