(** The numerical vector form of a compiled PEPA model, and the coupled
    ODE system of Hillston's fluid-flow approximation.

    Instead of one CTMC state per interleaving of replica local states,
    the numerical vector form counts how many replicas of each
    sequential component currently occupy each local derivative: a
    model [P\[n\] <L> Q\[m\]] becomes a vector with one coordinate per
    (population, local state) pair, of dimension independent of [n] and
    [m].  {!derive} finds the populations with the same structural
    grouping the symmetry engine uses (members of a parallel
    composition with identical leaf fingerprints collapse into one
    population) and tabulates the activity matrix: for every
    population, the local moves each action type induces together with
    their rates.

    The fluid-flow approximation then reads the model as a coupled ODE
    system over the vector: every activity flows continuously at the
    apparent rate the populations induce, with cooperation taking the
    {e minimum} of the two sides' apparent rates (bounded-capacity
    flux) and independent composition summing them, exactly mirroring
    the discrete apparent-rate algebra.  {!derivative} evaluates the
    right-hand side; the state-dependent flows at a solution give
    throughputs ({!throughputs}) and the vector itself gives component
    populations ({!populations}, {!proportions}).

    The approximation contract: the ODE solution is {e not} an exact
    aggregation of the CTMC (unlike symmetry reduction or lumping);
    it is the deterministic limit of the population process and
    converges to the true expectations as replica counts grow.
    Passive rates have no deterministic limit under the min semantics
    (a passive side of a cooperation never throttles, so its
    population can be driven negative); {!derive} rejects them with
    {!Unsupported}, as in Tribastone, Gilmore and Hillston's
    differential analysis of PEPA. *)

type t

exception Unsupported of string
(** The model has no fluid interpretation under this engine: a passive
    rate somewhere in a sequential component, or an empty model.  The
    message names the offending action. *)

type pop = {
  comp : int;          (** component index in the compiled model *)
  count : float;       (** number of replicas pooled into this population *)
  offset : int;        (** first coordinate of this population's block *)
  n_local : int;       (** local states of the component = block width *)
  label : string;      (** display name, unique across populations *)
  leaves : int array;  (** the compiled leaves pooled here *)
}

val derive : Pepa.Compile.t -> t
(** Build the numerical vector form.  Leaves of a parallel composition
    (cooperation over the empty set, the shape [P\[n\]] compiles to)
    with the same component and initial state pool into one population;
    every other leaf is a population of one.  Emits a ["fluid.derive"]
    tracing span with the dimension and population count. *)

val of_model : Pepa.Syntax.model -> t
val of_string : string -> t

val compiled : t -> Pepa.Compile.t
val pops : t -> pop array

val dim : t -> int
(** Length of the state vector: total local states over populations. *)

val n_flux_entries : t -> int
(** Rows of the activity matrix: (population, local move) pairs. *)

val initial : t -> float array
(** The initial numerical vector: each population's replica count on
    its initial local state. *)

val with_count : t -> pop:int -> count:float -> t
(** The same vector form with one population's replica count replaced
    — the fluid analogue of re-parameterising [P\[n\]], at no
    re-derivation cost.  The ODE dimension is unchanged; only
    {!initial} mass moves.  Raises [Invalid_argument] on a negative
    count or an out-of-range population index. *)

val derivative : t -> float array -> float array -> unit
(** [derivative form x dx] writes the ODE right-hand side at [x] into
    [dx] (both of length {!dim}).  Allocation-free after the first
    call, so an adaptive stepper can evaluate it millions of times. *)

val action_names : t -> string list
(** Named action types visible at the top level (hidden types are
    excluded), sorted — the fluid analogue of
    {!Pepa.Statespace.action_names}. *)

val throughput : t -> float array -> string -> float
(** Top-level flow of the named action type at state [x]: the fluid
    analogue of steady-state throughput when [x] is the ODE fixed
    point.  0 for unknown or hidden names. *)

val throughputs : t -> float array -> (string * float) list
(** {!throughput} of every visible action type, sorted by name. *)

val populations : t -> float array -> (string * float) list
(** Expected replica count per (population, local state), labelled
    ["Pop.Local"], in vector order. *)

val proportions : t -> float array -> (string * float) list
(** {!populations} normalised by each population's replica count: the
    marginal local-state distribution of one replica — the measure the
    Reflector writes onto state diagrams. *)

val leaf_pop : t -> leaf:int -> int
(** The population a compiled leaf was pooled into. *)

val leaf_proportions : t -> float array -> leaf:int -> (string * float) list
(** Local-state distribution of the given leaf's population, labelled
    by local-state label only — the fluid analogue of
    {!Pepa.Statespace.local_marginals}. *)

val pp_summary : Format.formatter -> t -> unit
