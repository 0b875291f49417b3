(** Exhaustive state-space exploration and CTMC derivation.

    The derivation graph is built breadth-first from the initial state,
    treating every distinct leaf-state vector as a CTMC state, exactly as
    in the PEPA Workbench.  The resulting labelled transition system
    retains action labels so that action-type measures (throughput) can
    be computed after the steady-state solution.

    Internally transitions are stored as a compressed grouped stream
    with the action types interned into a table: the row-boundary array
    is the src column's run-length encoding (so no src column exists),
    and each transition packs destination and action id into a single
    word next to its rate — two words per transition.  The CTMC is
    assembled straight from the stream; the list-returning accessors
    below are a compatibility layer that materialises records on demand
    (cached, so repeated calls stay cheap).

    State vectors are bit-packed through {!Statekey} before they touch
    any table: the intern structures hold compact byte keys hashed
    exactly once, and the explored states live in one contiguous packed
    arena (a few bytes per state instead of a boxed [int array]), so
    exploration memory is dominated by the transition columns rather
    than the state store.  Accessors decode on demand. *)

type transition = { src : int; action : Action.t; rate : float; dst : int }

type t

exception Too_many_states of int
(** Raised when exploration exceeds the [max_states] bound. *)

exception Passive_transition of { state : string; action : string }
(** Raised when a passive activity survives to the top level of the
    model: its rate is unspecified, so no CTMC exists.  The offending
    state and action are reported. *)

val states_explored : Obs.Metrics.counter
(** Shared exploration counters: this builder and
    {!Pepanet.Net_statespace.build} add to the same process-global
    metrics, so a pipeline run reports one total per name.
    [intern_collisions] counts probes past an occupied slot in the
    open-addressing intern table. *)

val transitions_emitted : Obs.Metrics.counter
val intern_collisions : Obs.Metrics.counter

val canonical_hits : Obs.Metrics.counter
(** States rewritten to a previously seen orbit representative during a
    symmetry-reduced build (["statespace.canonical_hits"]). *)

val frontier_states : Obs.Metrics.gauge
(** Discovered-but-unexpanded states of the build in progress
    (["statespace.frontier_states"]), refreshed per expansion so the
    background sampler can chart frontier occupancy over time.  Shared
    with {!Pepanet.Net_statespace.build}. *)

val packed_key_bytes : Obs.Metrics.gauge
(** Bytes per bit-packed state key of the most recent build
    (["statespace.packed_key_bytes"]).  Shared with
    {!Pepanet.Net_statespace.build}, which sets it for its marking
    keys. *)

val packed_arena_bytes : Obs.Metrics.gauge
(** Total packed state-arena footprint of the most recent build in
    bytes (["statespace.packed_arena_bytes"]).  Shared with
    {!Pepanet.Net_statespace.build}. *)

val build : ?max_states:int -> ?symmetry:bool -> Compile.t -> t
(** Explore the full state space (default bound: 1_000_000 states).
    Emits a ["statespace.build"] tracing span, adds to the exploration
    counters, and reports progress every [Obs.Config.progress_interval]
    states when telemetry is enabled.

    With [~symmetry:true] every vector is canonicalised through
    {!Symmetry.canonicalise} before interning, so permutation-equivalent
    states of replicated components collapse to one representative.
    The reduced chain is the exact ordinary lumping of the full one:
    throughputs are unchanged and {!local_marginals} averages over the
    leaf's orbit.  Models without replica groups explore
    identically (detection is a one-off structural pass).

    Exploration is sequential breadth-first search: states are numbered
    in order of first occurrence. *)

val of_model : ?max_states:int -> ?symmetry:bool -> Syntax.model -> t
val of_string : ?max_states:int -> ?symmetry:bool -> string -> t

val compiled : t -> Compile.t

val symmetry : t -> Symmetry.t
(** The replica symmetry used during the build ({!Symmetry.trivial}
    unless [~symmetry:true] found groups). *)

val n_states : t -> int

val n_transitions : t -> int
(** O(1): the count is a consequence of the column layout, not a list
    traversal. *)

val state : t -> int -> int array
val state_label : t -> int -> string
val initial_index : t -> int

val transitions : t -> transition list
(** All transitions as records, in exploration order (grouped by
    source).  Materialised from the compressed stream on first call and
    cached. *)

val transitions_from : t -> int -> transition list

val iter_transitions :
  t -> (src:int -> action:Action.t -> rate:float -> dst:int -> unit) -> unit
(** Iterate the compressed stream directly — no list, no record
    allocation. *)

val fold_transitions :
  t -> ('a -> src:int -> action:Action.t -> rate:float -> dst:int -> 'a) -> 'a -> 'a

val deadlocks : t -> int list
(** Indices of states with no outgoing transitions. *)

val action_names : t -> string list
(** Named action types occurring on reachable transitions, sorted.
    Read from the interned action table: O(#action types). *)

val ctmc : t -> Markov.Ctmc.t
(** The derived CTMC (transition rates between identical state pairs are
    summed; computed once and cached).  Assembled from the compressed
    stream via {!Markov.Ctmc.of_grouped} — no coordinate arrays are
    materialised. *)

val release_derived : t -> unit
(** Drop every cached derived structure — the CTMC (and its transposed
    generator), the lump partition, and the materialised transition
    record lists.  They are rebuilt on demand by the next accessor, so
    this only trades time for space: callers holding several large
    spaces at once (the benchmark harness between its sequential and
    parallel pipelines) use it to keep one pipeline's CSR matrices from
    inflating the other's peak. *)

val lump_partition : t -> Markov.Lump.t
(** Coarsest ordinary lumping of the derived chain that respects the
    per-action-type exit signature (computed once and cached).  Because
    classes never mix action signatures, throughput measures on the
    uniformly disaggregated lumped solution are exact. *)

val steady_state :
  ?method_:Markov.Steady.method_ ->
  ?options:Markov.Steady.options ->
  ?lump:bool ->
  ?jobs:int ->
  t ->
  float array
(** Steady-state distribution over the explored states.  With
    [~lump:true] the solver runs on the lumped quotient chain and the
    result is disaggregated uniformly within each class — same length,
    same throughputs, exact per-class probabilities.  Chains the
    refinement cannot compress solve directly. *)

val transient : t -> time:float -> float array
(** Transient distribution starting from the initial state. *)

val throughput : t -> float array -> string -> float
(** [throughput space pi action] is the steady-state throughput of the
    named action type: the expected number of completions per time
    unit.  One pass over the compressed stream. *)

val throughputs : t -> float array -> (string * float) list
(** Throughput of every reachable action type, sorted by name.  One
    pass over the compressed stream for all action types together (the seed
    implementation rescanned the transition list once per name). *)

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
