type pepa_analysis = {
  space : Pepa.Statespace.t;
  distribution : float array;
  results : Results.t;
}

type net_analysis = {
  net_space : Pepanet.Net_statespace.t;
  net_distribution : float array;
  net_results : Results.t;
}

type fluid_analysis = {
  form : Fluid.Vector_form.t;
  populations : float array;
  fluid_stats : Fluid.Rk45.stats;
  fluid_results : Results.t;
}

type net_fluid_analysis = {
  net_form : Fluid.Net_form.t;
  net_populations : float array;
  net_fluid_stats : Fluid.Rk45.stats;
  net_fluid_results : Results.t;
}

exception Analysis_error of string

let wrap name thunk =
  let fail fmt = Format.kasprintf (fun msg -> raise (Analysis_error msg)) fmt in
  try thunk () with
  | Pepa.Parser.Parse_error { line; col; message } ->
      fail "%s: parse error at %d:%d: %s" name line col message
  | Pepanet.Net_parser.Parse_error { line; col; message } ->
      fail "%s: parse error at %d:%d: %s" name line col message
  | Pepa.Env.Semantic_error msg -> fail "%s: %s" name msg
  | Pepa.Compile.Compile_error msg -> fail "%s: %s" name msg
  | Pepanet.Net_compile.Net_error msg -> fail "%s: %s" name msg
  | Pepa.Statespace.Too_many_states n -> fail "%s: state space exceeds %d states" name n
  | Pepanet.Net_statespace.Too_many_markings n -> fail "%s: more than %d markings" name n
  | Pepa.Statespace.Passive_transition { state; action } ->
      fail "%s: passive action %s escapes to the top level in state %s" name action state
  | Pepanet.Net_statespace.Passive_firing { marking; label } ->
      fail "%s: passive activity %s has no active partner in marking %s" name label marking
  | Markov.Steady.Not_solvable msg -> fail "%s: no steady state: %s" name msg
  | Fluid.Vector_form.Unsupported msg -> fail "%s: no fluid interpretation: %s" name msg

(* ------------------------------------------------------------------ *)
(* Staged primitives.  Each stage of an analysis — parse, compile,
   state-space derivation, solve, measure assembly — is its own wrapped
   function, and the [analyse_*] entry points below are nothing but the
   stages composed in order.  The daemon's content-hash cache memoises
   individual stages; because it calls exactly these functions, a solve
   assembled from cached artefacts is identical (to the byte, once
   rendered) to a cold [analyse_*] run.                                *)
(* ------------------------------------------------------------------ *)

let parse_pepa ~name src = wrap name (fun () -> Pepa.Parser.model_of_string src)
let parse_net ~name src = wrap name (fun () -> Pepanet.Net_parser.net_of_string src)

let compile_pepa ~name model =
  wrap name (fun () ->
      let env = Pepa.Env.of_model model in
      (Pepa.Compile.compile env, Pepa.Env.warnings env))

let compile_net ~name net = wrap name (fun () -> Pepanet.Net_compile.compile net)

let pepa_space ~name ?max_states ?jobs:_ ~symmetry compiled =
  wrap name (fun () -> Pepa.Statespace.build ?max_states ~symmetry compiled)

let net_space ~name ?max_markings ?jobs:_ ~symmetry compiled =
  wrap name (fun () -> Pepanet.Net_statespace.build ?max_markings ~symmetry compiled)

let solve_pepa ~name ?method_ ?jobs ~lump space =
  wrap name (fun () -> Pepa.Statespace.steady_state ?method_ ?jobs ~lump space)

let solve_net ~name ?method_ ?jobs ~lump space =
  wrap name (fun () -> Pepanet.Net_statespace.steady_state ?method_ ?jobs ~lump space)

let pepa_results ~name ~warnings space distribution =
  wrap name (fun () ->
      (* Component-state utilisations, one entry per (leaf, local state):
         the measure the Reflector writes onto state diagrams. *)
      let leaf_labels = Pepa.Compile.leaf_labels (Pepa.Statespace.compiled space) in
      let state_probabilities =
        List.concat
          (List.init (Array.length leaf_labels) (fun leaf ->
               List.map
                 (fun (label, p) -> (Printf.sprintf "%s.%s" leaf_labels.(leaf) label, p))
                 (Pepa.Statespace.local_marginals space distribution ~leaf)))
      in
      Results.make ~source:name ~kind:Results.Pepa_model
        ~n_states:(Pepa.Statespace.n_states space)
        ~n_transitions:(Pepa.Statespace.n_transitions space)
        ~throughputs:(Pepa.Statespace.throughputs space distribution)
        ~state_probabilities ~warnings ())

let net_results ~name ~warnings space distribution =
  wrap name (fun () ->
      Results.make ~source:name ~kind:Results.Pepa_net
        ~n_states:(Pepanet.Net_statespace.n_markings space)
        ~n_transitions:(Pepanet.Net_statespace.n_transitions space)
        ~throughputs:(Pepanet.Net_measures.throughputs space distribution)
        ~warnings ())

let pepa_fluid_form ~name compiled = wrap name (fun () -> Fluid.Vector_form.derive compiled)
let net_fluid_form ~name compiled = wrap name (fun () -> Fluid.Net_form.derive compiled)

let integrate_pepa_form ?tolerances ?x0 form =
  let f ~t:_ ~x ~dx = Fluid.Vector_form.derivative form x dx in
  let x0 = match x0 with Some x -> x | None -> Fluid.Vector_form.initial form in
  Fluid.Rk45.integrate ?tolerances ~f ~x0 ()

let integrate_net_form ?tolerances ?x0 form =
  let f ~t:_ ~x ~dx = Fluid.Net_form.derivative form x dx in
  let x0 = match x0 with Some x -> x | None -> Fluid.Net_form.initial form in
  Fluid.Rk45.integrate ?tolerances ~f ~x0 ()

let pepa_fluid_results ~name ~warnings form populations =
  Results.make ~source:name ~kind:Results.Pepa_model
    ~n_states:(Fluid.Vector_form.dim form)
    ~n_transitions:(Fluid.Vector_form.n_flux_entries form)
    ~throughputs:(Fluid.Vector_form.throughputs form populations)
    ~state_probabilities:(Fluid.Vector_form.proportions form populations)
    ~warnings ~approximation:"fluid" ()

let net_fluid_results ~name ~warnings form populations =
  Results.make ~source:name ~kind:Results.Pepa_net
    ~n_states:(Fluid.Net_form.dim form)
    ~n_transitions:(Fluid.Net_form.n_flux_entries form)
    ~throughputs:(Fluid.Net_form.throughputs form populations)
    ~state_probabilities:(Fluid.Net_form.proportions form populations)
    ~warnings ~approximation:"fluid" ()

let analyse_pepa ?(name = "model") ?method_ ?max_states ?(aggregate = Markov.Lump.No_agg)
    ?jobs model =
  Obs.Span.with_ ~attrs:[ ("model", Obs.Span.Str name) ] "workbench.analyse_pepa"
    (fun _ ->
      let compiled, warnings = compile_pepa ~name model in
      let space =
        pepa_space ~name ?max_states
          ~symmetry:(Markov.Lump.symmetry_enabled aggregate)
          compiled
      in
      let distribution =
        solve_pepa ~name ?method_ ?jobs ~lump:(Markov.Lump.lumping_enabled aggregate) space
      in
      let results = pepa_results ~name ~warnings space distribution in
      { space; distribution; results })

let analyse_pepa_string ?(name = "model") ?method_ ?max_states ?aggregate ?jobs src =
  let model = parse_pepa ~name src in
  analyse_pepa ~name ?method_ ?max_states ?aggregate ?jobs model

let analyse_pepa_file ?method_ ?max_states ?aggregate ?jobs path =
  let name = Filename.basename path in
  let model = wrap name (fun () -> Pepa.Parser.model_of_file path) in
  analyse_pepa ~name ?method_ ?max_states ?aggregate ?jobs model

let analyse_pepa_fluid ?(name = "model") ?tolerances model =
  Obs.Span.with_ ~attrs:[ ("model", Obs.Span.Str name) ] "workbench.analyse_pepa_fluid"
    (fun _ ->
      let compiled, warnings = compile_pepa ~name model in
      let form = pepa_fluid_form ~name compiled in
      let populations, fluid_stats = integrate_pepa_form ?tolerances form in
      let fluid_results = pepa_fluid_results ~name ~warnings form populations in
      { form; populations; fluid_stats; fluid_results })

let analyse_pepa_fluid_string ?(name = "model") ?tolerances src =
  let model = parse_pepa ~name src in
  analyse_pepa_fluid ~name ?tolerances model

let analyse_pepa_fluid_file ?tolerances path =
  let name = Filename.basename path in
  let model = wrap name (fun () -> Pepa.Parser.model_of_file path) in
  analyse_pepa_fluid ~name ?tolerances model

let analyse_net_fluid ?(name = "net") ?tolerances net =
  Obs.Span.with_ ~attrs:[ ("net", Obs.Span.Str name) ] "workbench.analyse_net_fluid"
    (fun _ ->
      let compiled = compile_net ~name net in
      let net_form = net_fluid_form ~name compiled in
      let net_populations, net_fluid_stats = integrate_net_form ?tolerances net_form in
      let net_fluid_results =
        net_fluid_results ~name
          ~warnings:(Pepanet.Net_compile.warnings compiled)
          net_form net_populations
      in
      { net_form; net_populations; net_fluid_stats; net_fluid_results })

let analyse_net_fluid_string ?(name = "net") ?tolerances src =
  let net = parse_net ~name src in
  analyse_net_fluid ~name ?tolerances net

let analyse_net_fluid_file ?tolerances path =
  let name = Filename.basename path in
  let net = wrap name (fun () -> Pepanet.Net_parser.net_of_file path) in
  analyse_net_fluid ~name ?tolerances net

let analyse_net ?(name = "net") ?method_ ?max_markings ?(aggregate = Markov.Lump.No_agg)
    ?jobs net =
  Obs.Span.with_ ~attrs:[ ("net", Obs.Span.Str name) ] "workbench.analyse_net"
    (fun _ ->
      let compiled = compile_net ~name net in
      let net_space =
        net_space ~name ?max_markings
          ~symmetry:(Markov.Lump.symmetry_enabled aggregate)
          compiled
      in
      let net_distribution =
        solve_net ~name ?method_ ?jobs ~lump:(Markov.Lump.lumping_enabled aggregate)
          net_space
      in
      let net_results =
        net_results ~name
          ~warnings:(Pepanet.Net_compile.warnings compiled)
          net_space net_distribution
      in
      { net_space; net_distribution; net_results })

let analyse_net_string ?(name = "net") ?method_ ?max_markings ?aggregate ?jobs src =
  let net = parse_net ~name src in
  analyse_net ~name ?method_ ?max_markings ?aggregate ?jobs net

let analyse_net_file ?method_ ?max_markings ?aggregate ?jobs path =
  let name = Filename.basename path in
  let net = wrap name (fun () -> Pepanet.Net_parser.net_of_file path) in
  analyse_net ~name ?method_ ?max_markings ?aggregate ?jobs net

let fluid_local_probabilities analysis ~leaf =
  Fluid.Vector_form.leaf_proportions analysis.form analysis.populations ~leaf

let local_probabilities analysis ~leaf =
  Pepa.Statespace.local_marginals analysis.space analysis.distribution ~leaf
