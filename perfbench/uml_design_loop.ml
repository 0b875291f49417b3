(* uml_design_loop: the paper's Figure 4 chain on small realistic
   models.  One op is [Minixml.parse_string] -> [Pipeline.process_document]
   -> [Minixml.to_string] on one Poseidon project drawn from a seeded
   stream: the PDA journey past k = 2..12 transmitters (activity
   graphs, PEPA nets) for two ops in three, the Tomcat client + JSP
   server state charts (a PEPA model) for the third. *)

open Common
module X = Xml_kit.Minixml
module W = Choreographer.Workbench
module P = Choreographer.Pipeline

type doc = { id : string; text : string; rates : Uml.Rates_file.t }

let ref_file = "uml_design_loop.tsv"
let transmitters = List.init 11 (fun i -> i + 2)

let documents () =
  let project xml = X.to_string (Uml.Poseidon.add_layout xml) in
  let pda k =
    {
      id = Printf.sprintf "pda_%d" k;
      text = project (Uml.Xmi_write.activity_to_xml (Scenarios.Pda.diagram_with_transmitters k));
      rates = Scenarios.Pda.rates_for_transmitters k;
    }
  in
  let tomcat =
    {
      id = "tomcat_jsp";
      text =
        project
          (Uml.Xmi_write.statecharts_to_xml
             [ Scenarios.Tomcat.client (); Scenarios.Tomcat.server_jsp () ]);
      rates = Uml.Rates_file.empty;
    }
  in
  Array.of_list (tomcat :: List.map pda transmitters)

(* The document stream: dealt from a deck holding the state-chart
   document (index 0) eleven times and each PDA document twice, so one
   op in three is the state-chart document and every run has the same
   mix. *)
let stream rng docs =
  let pdas = Array.to_list (Array.sub docs 1 (Array.length docs - 1)) in
  let deck = Deck.create rng (List.init (List.length pdas) (fun _ -> docs.(0)) @ pdas @ pdas) in
  fun () -> Deck.deal deck

let options d = { P.default_options with P.rates = d.rates; jobs = Some 1 }

let one_call d =
  let outcome = P.process_document ~options:(options d) (X.parse_string d.text) in
  X.to_string outcome.P.reflected

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let setup_repeats = 5

(* Set-up: generate the documents and load the references, then run
   one untimed, checked warm-up op on each distinct document. *)
let setup () =
  let docs = documents () in
  let refs = load_table ref_file in
  let failed = Array.fold_left (fun acc d -> if matches refs d.id (one_call d) then acc else acc + 1) 0 docs in
  (docs, refs, failed)

let run ~seed ~seconds =
  let setups = List.init setup_repeats (fun _ -> time setup) in
  let (docs, refs, _), _ = List.nth setups (setup_repeats - 1) in
  let warm_failed = List.fold_left (fun acc ((_, _, f), _) -> acc + f) 0 setups in
  let next = stream (rng ~seed 1) docs in
  let samples = ref [] and ends = ref [] and failed = ref warm_failed in
  let t_start = now () in
  while !samples = [] || now () -. t_start < seconds do
    let d = next () in
    let out, dt = time (fun () -> one_call d) in
    if not (matches refs d.id out) then incr failed;
    samples := (d.id, dt) :: !samples;
    ends := (now () -. t_start) :: !ends
  done;
  let n = List.length !samples and lat = List.map snd !samples in
  let doc_median id = median (List.filter_map (fun (i, dt) -> if i = id then Some dt else None) !samples) in
  {
    attempted = n + (setup_repeats * Array.length docs);
    failed = !failed;
    checks_ok = true;
    metrics =
      [
        m "setup_s" "s" (median (List.map snd setups));
        m "ops_per_s" "1/s" (windowed_rate ~seconds !ends);
        m "latency_p50_ms" "ms" (1e3 *. median lat);
        m "latency_p99_ms" "ms" (1e3 *. percentile 99.0 lat);
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ];
    notes =
      [
        Printf.sprintf "latency samples: %d timed documents (+%d checked warm-up documents)" n
          (setup_repeats * Array.length docs);
        "median latency by document (ms):"
        ^ String.concat ""
            (Array.to_list
               (Array.map (fun d -> Printf.sprintf " %s %.3f" d.id (1e3 *. doc_median d.id)) docs));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let model_name_of doc =
  match Xml_kit.Xpath_lite.select_one "//UML:Model" doc with
  | Some model -> Option.value ~default:"model" (X.attribute "name" model)
  | None -> "model"

(* [Pipeline.process_document] again, stage by stage through the public
   functions it calls, in its order.  Returns the reflected document
   text and the number of states explored. *)
let replay st d =
  let stage name f = Stages.run st name f in
  let original = stage "xml.parse" (fun () -> X.parse_string d.text) in
  let stripped = stage "uml.strip" (fun () -> Uml.Poseidon.strip original) in
  let validated =
    stage "uml.mdr" (fun () ->
        let repo = Uml.Mdr.create () in
        Uml.Mdr.import_xmi repo stripped;
        Uml.Mdr.export_xmi repo)
  in
  let activities, charts, interactions =
    stage "uml.xmi_read" (fun () ->
        let activities = Uml.Xmi_read.activities_of_xml validated in
        let charts = Uml.Xmi_read.statecharts_of_xml validated in
        (activities, charts, Uml.Xmi_read.interactions_of_xml validated))
  in
  let states = ref 0 in
  let activity diagram =
    let extraction =
      stage "extract.extract" (fun () ->
          Extract.Ad_to_pepanet.extract ~rates:d.rates ~restart:`Cycle ~interactions diagram)
    in
    let name = diagram.Uml.Activity.diagram_name in
    let net = extraction.Extract.Ad_to_pepanet.net in
    let compiled = stage "pepa.compile" (fun () -> W.compile_net ~name net) in
    let space =
      stage "pepa.explore" (fun () -> W.net_space ~name ~jobs:1 ~symmetry:false compiled)
    in
    states := !states + Pepanet.Net_statespace.n_markings space;
    stage "markov.assemble" (fun () ->
        ignore (Markov.Ctmc.generator_transposed ~jobs:1 (Pepanet.Net_statespace.ctmc space)));
    let distribution =
      stage "markov.solve" (fun () -> W.solve_net ~name ~jobs:1 ~lump:false space)
    in
    let results =
      stage "core.measures" (fun () ->
          W.net_results ~name ~warnings:(Pepanet.Net_compile.warnings compiled) space
            distribution)
    in
    stage "extract.reflect" (fun () ->
        Extract.Reflector.reflect_activity extraction
          ?approximation:results.Choreographer.Results.approximation
          ~throughputs:results.Choreographer.Results.throughputs diagram)
  in
  let reflected_activities = List.map activity activities in
  let reflected_charts =
    if charts = [] then []
    else begin
      let extraction =
        stage "extract.extract" (fun () -> Extract.Sc_to_pepa.extract ~rates:d.rates charts)
      in
      let name = String.concat "+" (List.map (fun c -> c.Uml.Statechart.chart_name) charts) in
      let compiled, warnings =
        stage "pepa.compile" (fun () -> W.compile_pepa ~name extraction.Extract.Sc_to_pepa.model)
      in
      let space =
        stage "pepa.explore" (fun () -> W.pepa_space ~name ~jobs:1 ~symmetry:false compiled)
      in
      states := !states + Pepa.Statespace.n_states space;
      stage "markov.assemble" (fun () ->
          ignore (Markov.Ctmc.generator_transposed ~jobs:1 (Pepa.Statespace.ctmc space)));
      let distribution =
        stage "markov.solve" (fun () -> W.solve_pepa ~name ~jobs:1 ~lump:false space)
      in
      let probabilities, results =
        stage "core.measures" (fun () ->
            let results = W.pepa_results ~name ~warnings space distribution in
            let analysis = { W.space; distribution; results } in
            ( List.concat_map
                (fun (_chart, leaf) -> W.local_probabilities analysis ~leaf)
                extraction.Extract.Sc_to_pepa.chart_leaf,
              results ))
      in
      stage "extract.reflect" (fun () ->
          Extract.Reflector.reflect_statecharts extraction
            ?approximation:results.Choreographer.Results.approximation ~probabilities charts)
    end
  in
  let reflected =
    stage "uml.write_back" (fun () ->
        let rebuilt =
          Uml.Xmi_write.document_to_xml ~model_name:(model_name_of validated) ~interactions
            reflected_activities reflected_charts
        in
        Uml.Poseidon.merge ~original ~reflected:rebuilt ())
  in
  (stage "xml.print" (fun () -> X.to_string reflected), !states)

let stage_names =
  [
    "xml.parse"; "uml.strip"; "uml.mdr"; "uml.xmi_read"; "extract.extract"; "pepa.compile";
    "pepa.explore"; "markov.assemble"; "markov.solve"; "core.measures"; "extract.reflect";
    "uml.write_back"; "xml.print";
  ]

let trace ~seed ~seconds =
  let docs = documents () in
  let refs = load_table ref_file in
  let next = stream (rng ~seed 1) docs in
  let st = Stages.create () in
  let untraced = ref 0.0 and traced = ref 0.0 and replayed_wall = ref 0.0 in
  let n = ref 0 and bytes = ref 0 and states = ref 0 and iterations = ref 0 in
  let attempted = ref 0 and failed = ref 0 and identical = ref true in
  let check d out =
    incr attempted;
    if not (matches refs d.id out) then incr failed
  in
  let t_start = now () in
  while !n = 0 || now () -. t_start < seconds do
    let d = next () in
    Obs.Config.disable ();
    let out, dt = time (fun () -> one_call d) in
    check d out;
    untraced := !untraced +. dt;
    Obs.Config.enable ();
    let out, dt = time (fun () -> one_call d) in
    check d out;
    traced := !traced +. dt;
    let it0 = Obs.Metrics.value Tandem_exact.iterations_counter in
    let (replayed, explored), dt = time (fun () -> replay st d) in
    iterations := !iterations + Obs.Metrics.value Tandem_exact.iterations_counter - it0;
    replayed_wall := !replayed_wall +. dt;
    check d replayed;
    if replayed <> out then identical := false;
    bytes := !bytes + String.length d.text;
    states := !states + explored;
    incr n;
    Obs.Span.reset ()
  done;
  Obs.Config.disable ();
  let per_op name = Stages.get st name /. float_of_int !n in
  {
    attempted = !attempted;
    failed = !failed;
    checks_ok = !identical;
    metrics =
      List.map (fun name -> m (name ^ "_s") "s" (per_op name)) stage_names
      @ [
          m "xml.bytes_in" "B" (float_of_int !bytes /. float_of_int !n);
          m "pepa.explore_states_per_s" "1/s"
            (float_of_int !states /. Stages.get st "pepa.explore");
          m "markov.solve_iterations" "count" (float_of_int !iterations /. float_of_int !n);
          m "coverage" "ratio" (Stages.total st /. !replayed_wall);
          m "trace_overhead" "ratio" (!traced /. !untraced);
        ];
    notes =
      [
        Printf.sprintf "documents replayed: %d; stage times are seconds per document" !n;
        Printf.sprintf "stage replay vs one-call output: %s; replay wall / traced one-call wall: %.3f"
          (if !identical then "byte-identical" else "DIFFERENT")
          (!replayed_wall /. !traced);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Reference generation                                                *)
(* ------------------------------------------------------------------ *)

let write_reference () =
  save_table ref_file (Array.to_list (Array.map (fun d -> (d.id, digest (one_call d))) (documents ())))
