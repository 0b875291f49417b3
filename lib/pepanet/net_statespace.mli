(** Reachability graph of a PEPA net and its derived CTMC, treating each
    marking as a distinct state (as in the paper's Section 2.2).

    Transitions are stored as a compressed grouped stream (the
    row-boundary array encodes the src column; destination and interned
    label id share one word next to the rate — two words per
    transition), read through {!iter_transitions}; {!Net_measures}
    works straight off the stream through {!label_flux}. *)

type t

exception Too_many_markings of int

exception Passive_firing of { marking : string; label : string }
(** A passive activity (local or firing) survived with no active
    participant to set its rate: the model is incomplete. *)

val build : ?max_markings:int -> ?symmetry:bool -> Net_compile.t -> t
(** With [~symmetry:true], interchangeable cells — cell leaves of the
    same token family composed in one same-set cooperation chain of a
    place's context — have their contents sorted before each marking is
    interned, so markings differing only by a permutation of
    indistinguishable cells collapse to one representative.  Tokens keep
    their identity and place, so token- and place-level measures are
    exact; the reduction is the marking-graph analogue of
    {!Pepa.Statespace.build}'s replica symmetry and adds to the same
    ["statespace.canonical_hits"] counter. *)

val of_string : ?max_markings:int -> ?symmetry:bool -> string -> t
val of_file : ?max_markings:int -> ?symmetry:bool -> string -> t

val compiled : t -> Net_compile.t
val n_markings : t -> int

val n_transitions : t -> int
(** O(1). *)

val marking : t -> int -> Marking.t
val marking_label : t -> int -> string
val initial_index : t -> int
val iter_transitions :
  t -> (src:int -> label:Net_semantics.label -> rate:float -> dst:int -> unit) -> unit
(** Every transition in exploration order (grouped by source), read
    straight off the compressed stream — no list, no record
    allocation. *)

val deadlocks : t -> int list

val labels : t -> Net_semantics.label array
(** The interned label table.  Transition labels index into it; do not
    mutate. *)

val label_flux : t -> float array -> float array
(** [label_flux space pi] is the steady-state flux [sum pi(src) * rate]
    of every interned label, indexed like {!labels}.  One pass over the
    compressed stream; the measure functions select from it instead of
    rescanning the transitions per query. *)

val ctmc : t -> Markov.Ctmc.t

val release_derived : t -> unit
(** Drop the cached CTMC and lump partition; rebuilt on demand — see {!Pepa.Statespace.release_derived}. *)

val lump_partition : t -> Markov.Lump.t
(** Coarsest ordinary lumping of the marking chain respecting the
    per-label exit signature (computed once and cached); see
    {!Pepa.Statespace.lump_partition}. *)

val steady_state :
  ?method_:Markov.Steady.method_ ->
  ?options:Markov.Steady.options ->
  ?lump:bool ->
  ?jobs:int ->
  t ->
  float array
(** Steady-state distribution over the markings; with [~lump:true] the
    solve runs on the lumped quotient and is disaggregated uniformly,
    preserving every label flux exactly. *)

val transient : t -> time:float -> float array

val action_names : t -> string list
(** All named action types on reachable transitions, local and firing,
    sorted.  Read from the interned label table. *)

val pp_summary : Format.formatter -> t -> unit
