module X = Xml_kit.Minixml

type options = {
  rates : Uml.Rates_file.t;
  restart : [ `Cycle | `Absorb ];
  method_ : Markov.Steady.method_ option;
  max_states : int option;
  aggregate : Markov.Lump.mode;
  fluid : Fluid.Rk45.tolerances option;
  jobs : int option;
}

let default_options =
  {
    rates = Uml.Rates_file.empty;
    restart = `Cycle;
    method_ = None;
    max_states = None;
    aggregate = Markov.Lump.No_agg;
    fluid = None;
    jobs = None;
  }

type outcome = {
  reflected : X.t;
  results : Results.t list;
  extracted_nets : (string * Pepanet.Net.t) list;
  extracted_models : (string * Pepa.Syntax.model) list;
}

exception Pipeline_error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Pipeline_error msg)) fmt

let through_mdr doc =
  let repo = Uml.Mdr.create () in
  (try Uml.Mdr.import_xmi repo doc
   with Uml.Mdr.Metamodel_violation msg -> fail "metamodel violation: %s" msg);
  Uml.Mdr.export_xmi repo

let model_name_of doc =
  match Xml_kit.Xpath_lite.select_one "//UML:Model" doc with
  | Some model -> Option.value ~default:"model" (X.attribute "name" model)
  | None -> "model"

(* Solve one extracted model: exactly, or in fluid mode by the fluid
   approximation.  An extracted system may have no fluid interpretation
   (passive cooperation, mixed firing priorities); it then falls back
   to the exact solve with a warning naming the option that asked for
   the approximation, rather than failing the document. *)
let exact_or_fluid options ~exact ~fluid =
  let exact ?(extra_warnings = []) () =
    let r = try exact () with Workbench.Analysis_error msg -> fail "%s" msg in
    { r with Results.warnings = r.Results.warnings @ extra_warnings }
  in
  match options.fluid with
  | None -> exact ()
  | Some tolerances -> (
      try fluid tolerances
      with Workbench.Analysis_error msg ->
        exact ~extra_warnings:[ Printf.sprintf "--fluid: %s; solved exactly instead" msg ] ())

let analyse_activity options interactions diagram =
  let extraction =
    try
      Extract.Ad_to_pepanet.extract ~rates:options.rates ~restart:options.restart ~interactions
        diagram
    with Extract.Ad_to_pepanet.Extraction_error msg ->
      fail "extraction of %s failed: %s" diagram.Uml.Activity.diagram_name msg
  in
  let name = diagram.Uml.Activity.diagram_name in
  let net = extraction.Extract.Ad_to_pepanet.net in
  let results =
    exact_or_fluid options
      ~exact:(fun () ->
        (Workbench.analyse_net ~name ?method_:options.method_
           ?max_markings:options.max_states ~aggregate:options.aggregate ?jobs:options.jobs net)
          .Workbench.net_results)
      ~fluid:(fun tolerances ->
        (Workbench.analyse_net_fluid ~name ~tolerances net).Workbench.net_fluid_results)
  in
  let reflected_diagram =
    Extract.Reflector.reflect_activity extraction
      ?approximation:results.Results.approximation ~throughputs:results.Results.throughputs
      diagram
  in
  (reflected_diagram, extraction, results)

let analyse_statecharts options charts =
  let extraction =
    try Extract.Sc_to_pepa.extract ~rates:options.rates charts
    with Extract.Sc_to_pepa.Extraction_error msg ->
      fail "state-diagram extraction failed: %s" msg
  in
  let name =
    String.concat "+" (List.map (fun c -> c.Uml.Statechart.chart_name) charts)
  in
  let model = extraction.Extract.Sc_to_pepa.model in
  (* The steady-state probability of each state constant, computed per
     chart from its leaf's local distribution, replaces the model-wide
     state probabilities. *)
  let per_chart local_probabilities (results : Results.t) =
    let state_probabilities =
      List.concat_map
        (fun (_chart, leaf) -> local_probabilities ~leaf)
        extraction.Extract.Sc_to_pepa.chart_leaf
    in
    { results with Results.state_probabilities }
  in
  let results =
    exact_or_fluid options
      ~exact:(fun () ->
        let analysis =
          Workbench.analyse_pepa ~name ?method_:options.method_ ?max_states:options.max_states
            ~aggregate:options.aggregate ?jobs:options.jobs model
        in
        per_chart (Workbench.local_probabilities analysis) analysis.Workbench.results)
      ~fluid:(fun tolerances ->
        let analysis = Workbench.analyse_pepa_fluid ~name ~tolerances model in
        per_chart
          (Workbench.fluid_local_probabilities analysis)
          analysis.Workbench.fluid_results)
  in
  let reflected_charts =
    Extract.Reflector.reflect_statecharts extraction
      ?approximation:results.Results.approximation
      ~probabilities:results.Results.state_probabilities charts
  in
  (reflected_charts, extraction, results)

let process_document ?(options = default_options) original =
  Obs.Span.with_ "pipeline" (fun pipeline_span ->
  let stripped =
    Obs.Span.with_ "pipeline.strip" (fun _ -> Uml.Poseidon.strip original)
  in
  let validated =
    Obs.Span.with_ "pipeline.mdr_validate" (fun _ -> through_mdr stripped)
  in
  let activities =
    try Uml.Xmi_read.activities_of_xml validated
    with Uml.Xmi_read.Xmi_error msg -> fail "reading activity graphs: %s" msg
  in
  let charts =
    try Uml.Xmi_read.statecharts_of_xml validated
    with Uml.Xmi_read.Xmi_error msg -> fail "reading state machines: %s" msg
  in
  if activities = [] && charts = [] then fail "the document contains no analysable diagram";
  let interactions =
    try Uml.Xmi_read.interactions_of_xml validated
    with Uml.Xmi_read.Xmi_error msg -> fail "reading interactions: %s" msg
  in
  let activity_outcomes = List.map (analyse_activity options interactions) activities in
  let chart_outcome = if charts = [] then None else Some (analyse_statecharts options charts) in
  let reflected_activities = List.map (fun (d, _, _) -> d) activity_outcomes in
  let reflected_charts =
    match chart_outcome with Some (cs, _, _) -> cs | None -> []
  in
  let reflected =
    Obs.Span.with_ "pipeline.write_back" (fun _ ->
        let rebuilt =
          Uml.Xmi_write.document_to_xml ~model_name:(model_name_of validated)
            ~interactions reflected_activities reflected_charts
        in
        Uml.Poseidon.merge ~original ~reflected:rebuilt ())
  in
  Obs.Span.add_int pipeline_span "activities" (List.length activities);
  Obs.Span.add_int pipeline_span "charts" (List.length charts);
  {
    reflected;
    results =
      List.map (fun (_, _, r) -> r) activity_outcomes
      @ (match chart_outcome with Some (_, _, r) -> [ r ] | None -> []);
    extracted_nets =
      List.map
        (fun (d, e, _) -> (d.Uml.Activity.diagram_name, e.Extract.Ad_to_pepanet.net))
        activity_outcomes;
    extracted_models =
      (match chart_outcome with
      | Some (_, e, _) ->
          [ ("statecharts", e.Extract.Sc_to_pepa.model) ]
      | None -> []);
  })

let process_file ?(options = default_options) ?rates_path ~input ~output () =
  let options =
    match rates_path with
    | Some path -> { options with rates = Uml.Rates_file.of_file path }
    | None -> options
  in
  let doc =
    try X.parse_file input
    with X.Parse_error { line; col; message } ->
      fail "%s: XML error at %d:%d: %s" input line col message
  in
  let outcome = process_document ~options doc in
  X.write_file output outcome.reflected;
  outcome
