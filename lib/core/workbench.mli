(** The Workbench layer: solve PEPA models and PEPA nets for their
    standard steady-state measures in one call, corresponding to the
    "PEPA Workbench for PEPA nets" box of the paper's Figure 4. *)

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
  populations : float array;  (** the ODE fixed point reached *)
  fluid_stats : Fluid.Rk45.stats;
  fluid_results : Results.t;
      (** [n_states] is the ODE dimension, [n_transitions] the activity
          matrix rows, and [approximation] is [Some "fluid"]. *)
}

type net_fluid_analysis = {
  net_form : Fluid.Net_form.t;
  net_populations : float array;  (** the ODE fixed point reached *)
  net_fluid_stats : Fluid.Rk45.stats;
  net_fluid_results : Results.t;
      (** [n_states] is the ODE dimension, [n_transitions] the flux
          rows (local and transfer), and [approximation] is
          [Some "fluid"]. *)
}

exception Analysis_error of string
(** Wraps parser, semantic, state-space and solver failures with
    context — including {!Fluid.Vector_form.Unsupported} (equally
    {!Fluid.Net_form.Unsupported}) for models with no fluid
    interpretation.  {!Markov.Steady.Did_not_converge}
    and {!Fluid.Rk45.Did_not_reach_steady} are deliberately {e not}
    wrapped: they carry structured solver statistics (method, iteration
    count, residual) that the command-line front ends report separately
    with a distinct exit code. *)

val analyse_pepa :
  ?name:string ->
  ?method_:Markov.Steady.method_ ->
  ?max_states:int ->
  ?aggregate:Markov.Lump.mode ->
  ?jobs:int ->
  Pepa.Syntax.model ->
  pepa_analysis
(** [aggregate] (default {!Markov.Lump.No_agg}) selects the aggregation
    passes run between state-space construction and the solve:
    [Symmetry] canonicalises replica permutations at exploration time,
    [Lumping] solves the ordinarily-lumped quotient chain and
    disaggregates, [Both] does both.  All reported measures
    (throughputs, local-state probabilities) are exact under every
    mode: the lump partition only ever merges states that are either
    in one symmetry orbit (equal probability) or indistinguishable by
    every local-state label, so nothing the disaggregated solution is
    read for depends on how mass is spread within a class.

    [jobs] overrides the process-wide [Par.jobs] default for the
    iterative solvers (Jacobi, Power, BiCGStab), the only stage that
    runs in parallel; exploration and assembly are sequential at every
    job count.  Results are deterministic and agree with a sequential
    run (probabilities to well under 1e-10, bitwise for BiCGStab and
    Gauss–Seidel). *)

val analyse_pepa_string :
  ?name:string ->
  ?method_:Markov.Steady.method_ ->
  ?max_states:int ->
  ?aggregate:Markov.Lump.mode ->
  ?jobs:int ->
  string ->
  pepa_analysis

val analyse_pepa_fluid :
  ?name:string ->
  ?tolerances:Fluid.Rk45.tolerances ->
  Pepa.Syntax.model ->
  fluid_analysis
(** Fluid-flow approximation instead of a discrete solve: derive the
    numerical vector form, integrate the coupled ODE system to steady
    state, and report throughputs and local-state proportions in the
    same {!Results.t} shape as {!analyse_pepa} — with
    [results.approximation = Some "fluid"], because the measures are
    the deterministic population limit, {e not} exact class sums.
    They converge to the exact values as replica counts grow, at a
    cost independent of the population size.  Raises {!Analysis_error}
    on models with no fluid interpretation (passive rates) and lets
    {!Fluid.Rk45.Did_not_reach_steady} escape. *)

val analyse_pepa_fluid_string :
  ?name:string -> ?tolerances:Fluid.Rk45.tolerances -> string -> fluid_analysis

val analyse_net_fluid :
  ?name:string ->
  ?tolerances:Fluid.Rk45.tolerances ->
  Pepanet.Net.t ->
  net_fluid_analysis
(** Fluid-flow approximation of a PEPA net: lower the net onto the
    population-model IR ({!Fluid.Net_form}) — tokens pooled by (place,
    local derivative), firings as inter-place transfer flux —
    integrate to steady state, and report throughputs (local activity
    types and firings combined, as {!Pepanet.Net_measures.throughput}
    counts them) and per-block local-state proportions.  Raises
    {!Analysis_error} on nets with no fluid interpretation (passive
    rates, mixed transition priorities) and lets
    {!Fluid.Rk45.Did_not_reach_steady} and
    {!Fluid.Rk45.Step_budget_exhausted} escape. *)

val analyse_net_fluid_string :
  ?name:string -> ?tolerances:Fluid.Rk45.tolerances -> string -> net_fluid_analysis

val analyse_net :
  ?name:string ->
  ?method_:Markov.Steady.method_ ->
  ?max_markings:int ->
  ?aggregate:Markov.Lump.mode ->
  ?jobs:int ->
  Pepanet.Net.t ->
  net_analysis
(** [aggregate] as in {!analyse_pepa}; the symmetry pass permutes
    interchangeable cell contents, so token- and place-level measures
    are exact. *)

val analyse_net_string :
  ?name:string ->
  ?method_:Markov.Steady.method_ ->
  ?max_markings:int ->
  ?aggregate:Markov.Lump.mode ->
  ?jobs:int ->
  string ->
  net_analysis

(** {1 Staged analysis}

    Parse → compile → derive → solve → measure is composed in exactly
    one place: the four compositions below, one per model kind (PEPA,
    PEPA net) and backend (exact, fluid).  The [analyse_*] entry points
    above, the UML {!Pipeline}, the daemon's engine, the parameter
    sweep and the [workbench] verbs that only derive a state space all
    go through them.

    Each composition runs its stages through a {!memo} hook.  The
    default, {!no_memo}, runs every stage.  The daemon's hook serves a
    stage from its content-hash model cache when the same [key] was
    built before for the same source, and otherwise runs and times it
    under the [stage] name.  Stage names are ["parse"], ["compile"],
    ["derive"], ["solve"] and ["integrate"]; a key names the options
    that affect the stage and everything before it.  Because a cached
    run and a cold run call the same functions, a response assembled
    from cached artefacts renders to the same bytes as a cold
    [analyse_*] run.  All stages raise {!Analysis_error} with the same
    messages as the [analyse_*] functions. *)

type memo = { run : 'a. 'a Type.Id.t -> stage:string -> key:string -> (unit -> 'a) -> 'a }
(** [run id ~stage ~key build] returns the artefact of one stage:
    either [build ()] or a value the hook stored earlier under [key].
    [id] identifies the artefact's type, so a hook can keep artefacts
    of every stage in one table.  Keys are relative to one model
    source: a hook serves one source per table. *)

val no_memo : memo
(** Runs every stage; the default of every composition. *)

type 'model input =
  | Source of string  (** model text, parsed by the composition's ["parse"] stage *)
  | Model of 'model  (** an already-built model; no parse stage runs *)

val pepa_exact :
  ?memo:memo ->
  ?name:string ->
  ?method_:Markov.Steady.method_ ->
  ?max_states:int ->
  ?aggregate:Markov.Lump.mode ->
  ?jobs:int ->
  ?initial:float array ->
  Pepa.Syntax.model input ->
  pepa_analysis * Markov.Steady.stats option
(** The exact PEPA composition behind {!analyse_pepa}, with the
    statistics of the solve that produced the distribution (cached
    along with it).  [initial] warm-starts an unlumped solve; a vector
    whose length is not the state count is ignored. *)

val net_exact :
  ?memo:memo ->
  ?name:string ->
  ?method_:Markov.Steady.method_ ->
  ?max_markings:int ->
  ?aggregate:Markov.Lump.mode ->
  ?jobs:int ->
  Pepanet.Net.t input ->
  net_analysis * Markov.Steady.stats option
(** The exact PEPA-net composition behind {!analyse_net}. *)

val pepa_fluid :
  ?memo:memo ->
  ?name:string ->
  ?tolerances:Fluid.Rk45.tolerances ->
  ?x0:float array ->
  Pepa.Syntax.model input ->
  fluid_analysis
(** The fluid PEPA composition behind {!analyse_pepa_fluid}: ["derive"]
    builds the vector form, ["integrate"] runs the ODE.  [x0] is the
    sweep's warm start; a vector whose length is not the ODE dimension
    is ignored. *)

val net_fluid :
  ?memo:memo ->
  ?name:string ->
  ?tolerances:Fluid.Rk45.tolerances ->
  Pepanet.Net.t input ->
  net_fluid_analysis
(** The fluid PEPA-net composition behind {!analyse_net_fluid}. *)

val pepa_model : ?memo:memo -> name:string -> string -> Pepa.Syntax.model
(** The ["parse"] stage every PEPA composition starts with, under the
    same key, for callers that rewrite the model before analysing it
    (the sweep). *)

val pepa_derived :
  ?memo:memo -> name:string -> ?max_states:int -> symmetry:bool ->
  Pepa.Syntax.model input -> Pepa.Statespace.t * string list
(** The exact composition up to and including ["derive"]: the reachable
    state space and the model's semantic warnings. *)

val net_derived :
  ?memo:memo -> name:string -> ?max_markings:int -> symmetry:bool ->
  Pepanet.Net.t input -> Pepanet.Net_statespace.t * string list

(** {2 The exact stages}

    Each stage of the exact compositions on its own, as they call it,
    for callers that time the stages one by one. *)

val parse_pepa : name:string -> string -> Pepa.Syntax.model
val parse_net : name:string -> string -> Pepanet.Net.t

val compile_pepa : name:string -> Pepa.Syntax.model -> Pepa.Compile.t * string list
(** The compiled component tree and the semantic warnings that
    {!pepa_results} later reports. *)

val compile_net : name:string -> Pepanet.Net.t -> Pepanet.Net_compile.t

val pepa_space :
  name:string -> ?max_states:int -> ?jobs:int -> symmetry:bool -> Pepa.Compile.t ->
  Pepa.Statespace.t
(** The reachable state space; [symmetry] is
    [Markov.Lump.symmetry_enabled aggregate].  Exploration is
    sequential: [?jobs] is accepted and unused, kept only for the
    callers that still pass it.  A cache may therefore serve a space to
    a request at any job count. *)

val net_space :
  name:string -> ?max_markings:int -> ?jobs:int -> symmetry:bool -> Pepanet.Net_compile.t ->
  Pepanet.Net_statespace.t
(** As {!pepa_space}, for PEPA nets; [?jobs] is likewise accepted and
    unused. *)

val solve_pepa :
  name:string -> ?method_:Markov.Steady.method_ -> ?jobs:int -> ?initial:float array ->
  lump:bool -> Pepa.Statespace.t -> float array
(** [initial] warm-starts the unlumped solve ({!Pepa.Statespace.steady_state}). *)

val solve_net :
  name:string -> ?method_:Markov.Steady.method_ -> ?jobs:int -> lump:bool ->
  Pepanet.Net_statespace.t -> float array

val pepa_results :
  name:string -> warnings:string list -> Pepa.Statespace.t -> float array -> Results.t

val net_results :
  name:string -> warnings:string list -> Pepanet.Net_statespace.t -> float array ->
  Results.t

val local_probabilities : pepa_analysis -> leaf:int -> (string * float) list
(** Distribution over the local derivative states of one sequential
    component (used to reflect state-diagram probabilities): a read of
    the {!Pepa.Statespace.local_marginals} table, which {!pepa_results}
    has already filled for the analysis' distribution. *)

val fluid_local_probabilities : fluid_analysis -> leaf:int -> (string * float) list
(** Fluid counterpart of {!local_probabilities}: the marginal
    local-state distribution of the population the leaf was pooled
    into. *)
