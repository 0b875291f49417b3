(** Labelled transition systems over bit-packed state vectors: the one
    explorer and transition store behind {!Statespace} (PEPA models)
    and [Pepanet.Net_statespace] (PEPA nets).

    A global state — a leaf-state vector or a flattened marking — is a
    vector of bounded integers, packed through a {!Statekey} codec into
    one contiguous arena and interned through an open-addressing table
    that stores each key's hash, so a key is hashed exactly once.
    Transitions are a compressed grouped stream: the row-boundary array
    is the src column's run-length encoding, and each transition packs
    destination and interned label id into one word next to its rate —
    two words per transition.  The CTMC is assembled straight from the
    stream, and the iterators allocate nothing per transition. *)

type 'l t
(** An explored state space whose transitions carry labels of type
    ['l]. *)

type symmetry = {
  groups : int;  (** number of symmetry groups, reported on the span *)
  canonicalise : int array -> bool;
      (** rewrite a vector in place to its orbit representative;
          [true] when it changed (a "canonical hit") *)
}

(** {1 Exploration metrics}

    Process-global; PEPA models and PEPA nets add to the same ones. *)

val states_explored : Obs.Metrics.counter
val transitions_emitted : Obs.Metrics.counter

val intern_collisions : Obs.Metrics.counter
(** Probes past an occupied slot of the intern table. *)

val canonical_hits : Obs.Metrics.counter
(** ["statespace.canonical_hits"]: vectors {!symmetry} rewrote. *)

val frontier_states : Obs.Metrics.gauge
(** ["statespace.frontier_states"]: discovered-but-unexpanded states of
    the build in progress, refreshed per expansion for the sampler. *)

val packed_key_bytes : Obs.Metrics.gauge
(** ["statespace.packed_key_bytes"] of the most recent build. *)

val packed_arena_bytes : Obs.Metrics.gauge
(** ["statespace.packed_arena_bytes"] of the most recent build. *)

(** {1 Exploration} *)

val explore :
  stage:string ->
  count_attr:string ->
  max_states:int ->
  overflow:(int -> exn) ->
  ?symmetry:symmetry ->
  Statekey.t ->
  int array ->
  (int array -> ('l -> float -> int array -> unit) -> unit) ->
  'l t
(** [explore ~stage ~count_attr ~max_states ~overflow codec initial
    successors] explores breadth-first from [initial], numbering states
    in order of first occurrence.  For each state in index order,
    [successors vec emit] gets the decoded vector and calls
    [emit label rate dst] once per outgoing transition, in order; [dst]
    is consumed (under [symmetry], canonicalised in place first) before
    [emit] returns, so one buffer may serve every call.  Interning a
    state past [max_states] raises [overflow max_states].

    Runs in a tracing span named [stage], with the state count under
    [count_attr] and ["transitions"], ["intern_collisions"],
    ["packed_key_bytes"] (and ["symmetry_groups"], ["canonical_hits"]
    under [symmetry]); with telemetry on it adds to the metrics above
    and reports progress every [Obs.Config.progress_interval] states. *)

(** {1 The explored system} *)

val n_states : 'l t -> int
val n_transitions : 'l t -> int

val labels : 'l t -> 'l array
(** The interned label table, in order of first occurrence: each
    distinct label has exactly one id.  Do not mutate. *)

val state : 'l t -> int -> int array
(** Decode a state into a fresh vector; state 0 is the initial one. *)

val state_into : 'l t -> int -> int array -> unit
(** Decode a state into a preallocated vector. *)

val iter_transitions :
  'l t -> (src:int -> label:'l -> rate:float -> dst:int -> unit) -> unit
(** Every transition in exploration order (grouped by source). *)

val iter_transitions_from :
  'l t -> int -> (label:'l -> rate:float -> dst:int -> unit) -> unit

val deadlocks : 'l t -> int list
(** States with no outgoing transitions. *)

val label_flux : 'l t -> float array -> float array
(** [label_flux lts pi]: the flux [sum pi(src) * rate] of every label,
    indexed like {!labels}, each summed in stream order. *)

(** {1 Derived chains} *)

val ctmc : 'l t -> Markov.Ctmc.t
(** The derived CTMC (rates between one state pair summed), assembled
    by {!Markov.Ctmc.of_grouped}; cached. *)

val release_derived : 'l t -> unit
(** Drop the cached CTMC and lump partition; rebuilt on demand. *)

val respect_by : 'l t -> (int array -> 'k) -> int array
(** Number the states by a key of their decoded vector (which [key]
    may mutate and return), ids in order of first occurrence: a respect
    key for {!lump_partition}. *)

val lump_partition : 'l t -> respect:(unit -> int array) -> Markov.Lump.t
(** Coarsest ordinary lumping respecting the per-label exit signature
    and the [respect] key, which states of different keys never share;
    cached, and [respect] is called only on a miss. *)

val steady_state :
  ?method_:Markov.Steady.method_ ->
  ?options:Markov.Steady.options ->
  ?initial:float array ->
  ?lump:bool ->
  ?jobs:int ->
  respect:(unit -> int array) ->
  'l t ->
  float array
(** With [~lump:true] the solve runs on the lumped quotient and is
    disaggregated uniformly within each class; the transition columns
    are expanded once for the refinement and the quotient together.
    Chains the refinement cannot compress solve directly.  [initial]
    warm-starts the unlumped solve and is ignored with [~lump:true]. *)

val transient : 'l t -> time:float -> float array
(** Transient distribution from the initial state. *)
