(** Continuous-time Markov chains.

    A chain is built from a list of labelled-rate transitions between
    integer states; the infinitesimal generator [Q] is derived with
    [Q(i,i) = -sum_j Q(i,j)].  Self-loops are dropped at construction:
    they have no effect on the behaviour of a CTMC. *)

type t

val of_transitions : n:int -> (int * int * float) list -> t
(** [of_transitions ~n ts] builds an [n]-state chain from
    [(source, target, rate)] triples.  Parallel transitions between the
    same pair of states are summed.  Raises [Invalid_argument] on a
    non-positive rate or an out-of-range state. *)

val of_arrays : n:int -> src:int array -> dst:int array -> rate:float array -> t
(** Flat-column variant of {!of_transitions}: transition [k] goes from
    [src.(k)] to [dst.(k)] at [rate.(k)].  The assembly is O(nnz) with no
    intermediate lists; state-space builders that already keep their
    transitions in columns should prefer this path.  The input arrays are
    not modified. *)

val of_grouped :
  n:int -> row_start:int array -> dst:(int -> int) -> rate:(int -> float) -> t
(** Build from a transition stream already grouped by source state: the
    transitions of state [i] occupy stream positions [row_start.(i)] to
    [row_start.(i + 1) - 1], read on demand through [dst]/[rate].  Same
    semantics as {!of_arrays} (parallel transitions summed, self-loops
    dropped) without ever materialising a src column or coordinate
    arrays — the assembly path for the compressed state-space
    transition streams. *)

val n_states : t -> int

val generator : t -> Sparse.t
(** The generator matrix [Q], including the negative diagonal. *)

val generator_transposed : ?jobs:int -> t -> Sparse.t
(** [Q] transposed; the orientation iterative solvers consume.  Computed
    once and cached, sequentially.  [?jobs] is accepted and unused: the
    assembly has no parallel path, and the label stays only for the
    callers that still pass it. *)

val exit_rate : t -> int -> float
(** Total outgoing rate of a state (0 for an absorbing state). *)

val exit_rates : t -> float array

val max_exit_rate : t -> float

val rate : t -> int -> int -> float
(** [rate c i j] is the transition rate from [i] to [j] ([i <> j]). *)

val successors : t -> int -> (int * float) list
(** Outgoing transitions of a state as [(target, rate)] pairs. *)

val is_absorbing : t -> int -> bool

val is_irreducible : t -> bool
(** Whether the chain is a single strongly-connected component, i.e. has
    a unique positive steady-state distribution. *)

val embedded_probabilities : t -> int -> (int * float) list
(** Jump-chain probabilities out of a state; [[]] for an absorbing
    state. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: states, transitions, max exit rate. *)
