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
(* Staged primitives: parse, compile, state-space derivation, solve and
   measure assembly, each its own wrapped function.  The compositions
   further down are the only place they are put together.             *)
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

let solve_pepa ~name ?method_ ?jobs ?initial ~lump space =
  wrap name (fun () -> Pepa.Statespace.steady_state ?method_ ?jobs ?initial ~lump space)

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

(* ------------------------------------------------------------------ *)
(* Compositions.  One per model kind and backend; every stage goes
   through [memo.run] under a stage name and a key naming the options
   that affect it, so a cache can serve any prefix of the chain.       *)
(* ------------------------------------------------------------------ *)

type memo = { run : 'a. 'a Type.Id.t -> stage:string -> key:string -> (unit -> 'a) -> 'a }

let no_memo = { run = (fun _ ~stage:_ ~key:_ build -> build ()) }

type 'model input = Source of string | Model of 'model

let pepa_model_id = Type.Id.make ()
let net_model_id = Type.Id.make ()
let pepa_compiled_id = Type.Id.make ()
let net_compiled_id = Type.Id.make ()
let pepa_space_id = Type.Id.make ()
let net_space_id = Type.Id.make ()
let pepa_solved_id = Type.Id.make ()
let net_solved_id = Type.Id.make ()
let pepa_form_id = Type.Id.make ()
let net_form_id = Type.Id.make ()
let pepa_fluid_id = Type.Id.make ()
let net_fluid_id = Type.Id.make ()

let opt_int = function None -> "-" | Some n -> string_of_int n

let method_key = function
  | None -> "auto"
  | Some (Markov.Steady.Sor w) -> Printf.sprintf "sor:%g" w
  | Some m -> Markov.Steady.method_name m

let tolerances_key tolerances =
  let t = Option.value tolerances ~default:Fluid.Rk45.default_tolerances in
  Printf.sprintf "%g,%g" t.Fluid.Rk45.rtol t.Fluid.Rk45.atol

(* A warm start only applies to a vector of the right dimension. *)
let fitting n = function Some x when Array.length x = n -> Some x | _ -> None

let pepa_model ?(memo = no_memo) ~name src =
  memo.run pepa_model_id ~stage:"parse" ~key:"pepa-model" (fun () -> parse_pepa ~name src)

let pepa_compiled memo ~name input =
  let model = match input with Source src -> pepa_model ~memo ~name src | Model m -> m in
  memo.run pepa_compiled_id ~stage:"compile" ~key:"pepa-compile" (fun () ->
      compile_pepa ~name model)

let net_compiled memo ~name input =
  let net =
    match input with
    | Source src ->
        memo.run net_model_id ~stage:"parse" ~key:"net-model" (fun () -> parse_net ~name src)
    | Model n -> n
  in
  memo.run net_compiled_id ~stage:"compile" ~key:"net-compile" (fun () -> compile_net ~name net)

let pepa_derived ?(memo = no_memo) ~name ?max_states ~symmetry input =
  let compiled, warnings = pepa_compiled memo ~name input in
  ( memo.run pepa_space_id ~stage:"derive"
      ~key:(Printf.sprintf "pepa-space:sym=%b:max=%s" symmetry (opt_int max_states))
      (fun () -> pepa_space ~name ?max_states ~symmetry compiled),
    warnings )

let net_derived ?(memo = no_memo) ~name ?max_markings ~symmetry input =
  let compiled = net_compiled memo ~name input in
  ( memo.run net_space_id ~stage:"derive"
      ~key:(Printf.sprintf "net-space:sym=%b:max=%s" symmetry (opt_int max_markings))
      (fun () -> net_space ~name ?max_markings ~symmetry compiled),
    Pepanet.Net_compile.warnings compiled )

let pepa_exact ?(memo = no_memo) ?(name = "model") ?method_ ?max_states
    ?(aggregate = Markov.Lump.No_agg) ?jobs ?initial input =
  let symmetry = Markov.Lump.symmetry_enabled aggregate in
  let lump = Markov.Lump.lumping_enabled aggregate in
  let space, warnings = pepa_derived ~memo ~name ?max_states ~symmetry input in
  memo.run pepa_solved_id ~stage:"solve"
    ~key:
      (Printf.sprintf "pepa-solved:sym=%b:max=%s:method=%s:lump=%b" symmetry
         (opt_int max_states) (method_key method_) lump)
    (fun () ->
      let initial = fitting (Pepa.Statespace.n_states space) initial in
      let distribution = solve_pepa ~name ?method_ ?jobs ?initial ~lump space in
      let stats = Markov.Steady.last_stats () in
      ({ space; distribution; results = pepa_results ~name ~warnings space distribution }, stats))

let net_exact ?(memo = no_memo) ?(name = "net") ?method_ ?max_markings
    ?(aggregate = Markov.Lump.No_agg) ?jobs input =
  let symmetry = Markov.Lump.symmetry_enabled aggregate in
  let lump = Markov.Lump.lumping_enabled aggregate in
  let net_space, warnings = net_derived ~memo ~name ?max_markings ~symmetry input in
  memo.run net_solved_id ~stage:"solve"
    ~key:
      (Printf.sprintf "net-solved:sym=%b:max=%s:method=%s:lump=%b" symmetry
         (opt_int max_markings) (method_key method_) lump)
    (fun () ->
      let net_distribution = solve_net ~name ?method_ ?jobs ~lump net_space in
      let stats = Markov.Steady.last_stats () in
      let net_results = net_results ~name ~warnings net_space net_distribution in
      ({ net_space; net_distribution; net_results }, stats))

let pepa_fluid ?(memo = no_memo) ?(name = "model") ?tolerances ?x0 input =
  let compiled, warnings = pepa_compiled memo ~name input in
  let form =
    memo.run pepa_form_id ~stage:"derive" ~key:"pepa-fluid-form" (fun () ->
        wrap name (fun () -> Fluid.Vector_form.derive compiled))
  in
  memo.run pepa_fluid_id ~stage:"integrate"
    ~key:("pepa-fluid-solved:" ^ tolerances_key tolerances)
    (fun () ->
      let module V = Fluid.Vector_form in
      let x0 = Option.value (fitting (V.dim form) x0) ~default:(V.initial form) in
      let f ~t:_ ~x ~dx = V.derivative form x dx in
      let populations, fluid_stats = Fluid.Rk45.integrate ?tolerances ~f ~x0 () in
      let fluid_results =
        Results.make ~source:name ~kind:Results.Pepa_model ~n_states:(V.dim form)
          ~n_transitions:(V.n_flux_entries form)
          ~throughputs:(V.throughputs form populations)
          ~state_probabilities:(V.proportions form populations)
          ~warnings ~approximation:"fluid" ()
      in
      { form; populations; fluid_stats; fluid_results })

let net_fluid ?(memo = no_memo) ?(name = "net") ?tolerances input =
  let compiled = net_compiled memo ~name input in
  let net_form =
    memo.run net_form_id ~stage:"derive" ~key:"net-fluid-form" (fun () ->
        wrap name (fun () -> Fluid.Net_form.derive compiled))
  in
  memo.run net_fluid_id ~stage:"integrate"
    ~key:("net-fluid-solved:" ^ tolerances_key tolerances)
    (fun () ->
      let module N = Fluid.Net_form in
      let f ~t:_ ~x ~dx = N.derivative net_form x dx in
      let net_populations, net_fluid_stats =
        Fluid.Rk45.integrate ?tolerances ~f ~x0:(N.initial net_form) ()
      in
      let net_fluid_results =
        Results.make ~source:name ~kind:Results.Pepa_net ~n_states:(N.dim net_form)
          ~n_transitions:(N.n_flux_entries net_form)
          ~throughputs:(N.throughputs net_form net_populations)
          ~state_probabilities:(N.proportions net_form net_populations)
          ~warnings:(Pepanet.Net_compile.warnings compiled)
          ~approximation:"fluid" ()
      in
      { net_form; net_populations; net_fluid_stats; net_fluid_results })

(* The one-call entry points: the compositions without a cache, under
   one span per analysis. *)

let analyse_pepa ?(name = "model") ?method_ ?max_states ?aggregate ?jobs model =
  Obs.Span.with_ ~attrs:[ ("model", Obs.Span.Str name) ] "workbench.analyse_pepa" (fun _ ->
      fst (pepa_exact ~name ?method_ ?max_states ?aggregate ?jobs (Model model)))

let analyse_pepa_string ?(name = "model") ?method_ ?max_states ?aggregate ?jobs src =
  analyse_pepa ~name ?method_ ?max_states ?aggregate ?jobs (parse_pepa ~name src)

let analyse_pepa_fluid ?(name = "model") ?tolerances model =
  Obs.Span.with_ ~attrs:[ ("model", Obs.Span.Str name) ] "workbench.analyse_pepa_fluid"
    (fun _ -> pepa_fluid ~name ?tolerances (Model model))

let analyse_pepa_fluid_string ?(name = "model") ?tolerances src =
  analyse_pepa_fluid ~name ?tolerances (parse_pepa ~name src)

let analyse_net_fluid ?(name = "net") ?tolerances net =
  Obs.Span.with_ ~attrs:[ ("net", Obs.Span.Str name) ] "workbench.analyse_net_fluid"
    (fun _ -> net_fluid ~name ?tolerances (Model net))

let analyse_net_fluid_string ?(name = "net") ?tolerances src =
  analyse_net_fluid ~name ?tolerances (parse_net ~name src)

let analyse_net ?(name = "net") ?method_ ?max_markings ?aggregate ?jobs net =
  Obs.Span.with_ ~attrs:[ ("net", Obs.Span.Str name) ] "workbench.analyse_net" (fun _ ->
      fst (net_exact ~name ?method_ ?max_markings ?aggregate ?jobs (Model net)))

let analyse_net_string ?(name = "net") ?method_ ?max_markings ?aggregate ?jobs src =
  analyse_net ~name ?method_ ?max_markings ?aggregate ?jobs (parse_net ~name src)

let fluid_local_probabilities analysis ~leaf =
  Fluid.Vector_form.leaf_proportions analysis.form analysis.populations ~leaf

let local_probabilities analysis ~leaf =
  Pepa.Statespace.local_marginals analysis.space analysis.distribution ~leaf
