(** Exhaustive state-space exploration and CTMC derivation.

    The derivation graph is built breadth-first from the initial state,
    treating every distinct leaf-state vector as a CTMC state, exactly as
    in the PEPA Workbench.  The resulting labelled transition system
    retains action labels so that action-type measures (throughput) can
    be computed after the steady-state solution.

    States and transitions live in a {!Lts.t}: a bit-packed state
    arena and a compressed grouped transition stream with the action
    types interned into its label table, shared with the PEPA-net
    builder.  This module adds what is PEPA's own: the {!Semantics}
    successors, replica symmetry and its lump respect key, and the
    local-state marginal table.  Callers read transitions through
    {!iter_transitions} and {!iter_transitions_from}, which allocate
    nothing per transition; accessors decode states on demand. *)

type t

exception Too_many_states of int
(** Raised when exploration exceeds the [max_states] bound. *)

exception Passive_transition of { state : string; action : string }
(** Raised when a passive activity survives to the top level of the
    model: its rate is unspecified, so no CTMC exists.  The offending
    state and action are reported. *)

(** {1 Exploration metrics}

    The {!Lts} exploration metrics, which PEPA models and PEPA nets add
    to alike. *)

val states_explored : Obs.Metrics.counter
val transitions_emitted : Obs.Metrics.counter
val intern_collisions : Obs.Metrics.counter
val canonical_hits : Obs.Metrics.counter
val frontier_states : Obs.Metrics.gauge
val packed_key_bytes : Obs.Metrics.gauge
val packed_arena_bytes : Obs.Metrics.gauge

val build : ?max_states:int -> ?symmetry:bool -> Compile.t -> t
(** Explore the full state space (default bound: 1_000_000 states)
    through {!Lts.explore}, under a ["statespace.build"] tracing span
    with the state count as its ["states"] attribute.

    With [~symmetry:true] every vector is canonicalised through
    {!Symmetry.canonicalise} before interning, so permutation-equivalent
    states of replicated components collapse to one representative.
    The reduced chain is the exact ordinary lumping of the full one:
    throughputs are unchanged and {!local_marginals} averages over the
    leaf's orbit.  Models without replica groups explore
    identically (detection is a one-off structural pass).

    Exploration is sequential breadth-first search: states are numbered
    in order of first occurrence. *)

val of_string : ?max_states:int -> ?symmetry:bool -> string -> t

val compiled : t -> Compile.t

val symmetry : t -> Symmetry.t
(** The replica symmetry used during the build ({!Symmetry.trivial}
    unless [~symmetry:true] found groups). *)

val n_states : t -> int

val n_transitions : t -> int
(** O(1). *)

val state : t -> int -> int array
val state_label : t -> int -> string
val initial_index : t -> int

val iter_transitions :
  t -> (src:int -> action:Action.t -> rate:float -> dst:int -> unit) -> unit
(** Every transition in exploration order ({!Lts.iter_transitions}). *)

val iter_transitions_from :
  t -> int -> (action:Action.t -> rate:float -> dst:int -> unit) -> unit

val deadlocks : t -> int list

val action_names : t -> string list
(** Named action types occurring on reachable transitions, sorted. *)

val ctmc : t -> Markov.Ctmc.t
(** The derived CTMC ({!Lts.ctmc}). *)

val release_derived : t -> unit
(** Drop the cached CTMC, lump partition and marginal table; rebuilt on
    demand, so this only trades time for space for callers holding
    several large spaces at once. *)

val lump_partition : t -> Markov.Lump.t
(** {!Lts.lump_partition} under the replica-orbit (or local-label)
    respect key, so every measure of this module stays exact on the
    uniformly disaggregated lumped solution. *)

val steady_state :
  ?method_:Markov.Steady.method_ ->
  ?options:Markov.Steady.options ->
  ?initial:float array ->
  ?lump:bool ->
  ?jobs:int ->
  t ->
  float array
(** Steady-state distribution over the explored states; with
    [~lump:true], solved on the {!lump_partition} quotient
    ({!Lts.steady_state}). *)

val transient : t -> time:float -> float array

val throughput : t -> float array -> string -> float
(** [throughput space pi action] is the steady-state throughput of the
    named action type: the expected number of completions per time
    unit, read from {!Lts.label_flux} (each action type has exactly one
    interned id); 0 for an action type with no reachable transition. *)

val throughputs : t -> float array -> (string * float) list
(** Throughput of every reachable action type, sorted by name, from
    one {!Lts.label_flux} pass. *)

val local_marginals : t -> float array -> leaf:int -> (string * float) list
(** The leaf's distribution over the distinct local-state labels of its
    component, sorted by label: the probability that the leaf sits in a
    local state with that label (a component-state "utilisation"
    measure).  On a symmetry-reduced space each value averages over the
    leaf's orbit — symmetric replicas share one marginal — so it matches
    the unreduced model exactly.

    One pass over the packed states fills the table for every leaf at
    once, in O(states x leaves).  The table of the most recent
    distribution (compared by physical identity, so the array must not
    be mutated afterwards) is kept, and asking for each leaf in turn
    costs that one pass in total. *)

val local_state_probability : t -> float array -> leaf:int -> label:string -> float
(** One entry of {!local_marginals}; 0 for a label the leaf's component
    does not have. *)

val pp_summary : Format.formatter -> t -> unit
