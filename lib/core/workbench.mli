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

val analyse_pepa_file :
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

val analyse_pepa_fluid_file :
  ?tolerances:Fluid.Rk45.tolerances -> string -> fluid_analysis

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

val analyse_net_fluid_file :
  ?tolerances:Fluid.Rk45.tolerances -> string -> net_fluid_analysis

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

val analyse_net_file :
  ?method_:Markov.Steady.method_ ->
  ?max_markings:int ->
  ?aggregate:Markov.Lump.mode ->
  ?jobs:int ->
  string ->
  net_analysis

(** {1 Staged analysis}

    The [analyse_*] entry points above are compositions of the stages
    below — parse, compile, derive, solve, assemble measures — each
    independently callable and each raising {!Analysis_error} with the
    same messages.  The daemon's content-hash model cache memoises
    individual stage outputs and re-runs only the stages an option
    change dirties; because both paths call exactly these functions, a
    response assembled from cached artefacts is identical to a cold
    [analyse_*] run. *)

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
  name:string -> ?method_:Markov.Steady.method_ -> ?jobs:int -> lump:bool ->
  Pepa.Statespace.t -> float array

val solve_net :
  name:string -> ?method_:Markov.Steady.method_ -> ?jobs:int -> lump:bool ->
  Pepanet.Net_statespace.t -> float array

val pepa_results :
  name:string -> warnings:string list -> Pepa.Statespace.t -> float array -> Results.t

val net_results :
  name:string -> warnings:string list -> Pepanet.Net_statespace.t -> float array ->
  Results.t

val pepa_fluid_form : name:string -> Pepa.Compile.t -> Fluid.Vector_form.t
val net_fluid_form : name:string -> Pepanet.Net_compile.t -> Fluid.Net_form.t

val integrate_pepa_form :
  ?tolerances:Fluid.Rk45.tolerances -> ?x0:float array -> Fluid.Vector_form.t ->
  float array * Fluid.Rk45.stats
(** [x0] overrides the form's initial populations — the sweep engine's
    warm start, integrating from the previous grid point's fixed point.
    Lets {!Fluid.Rk45.Did_not_reach_steady} escape, as [analyse_*]
    do. *)

val integrate_net_form :
  ?tolerances:Fluid.Rk45.tolerances -> ?x0:float array -> Fluid.Net_form.t ->
  float array * Fluid.Rk45.stats

val pepa_fluid_results :
  name:string -> warnings:string list -> Fluid.Vector_form.t -> float array -> Results.t

val net_fluid_results :
  name:string -> warnings:string list -> Fluid.Net_form.t -> float array -> Results.t

val local_probabilities : pepa_analysis -> leaf:int -> (string * float) list
(** Distribution over the local derivative states of one sequential
    component (used to reflect state-diagram probabilities): a read of
    the {!Pepa.Statespace.local_marginals} table, which {!pepa_results}
    has already filled for the analysis' distribution. *)

val fluid_local_probabilities : fluid_analysis -> leaf:int -> (string * float) list
(** Fluid counterpart of {!local_probabilities}: the marginal
    local-state distribution of the population the leaf was pooled
    into. *)
