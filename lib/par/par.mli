(** Domain-parallel execution built on the OCaml 5 stdlib only
    ([Domain], [Mutex], [Condition], [Atomic] — no domainslib).

    The module provides two layers:

    - a reusable {!Pool} of worker domains driven by an epoch /
      condition-variable handshake (no work stealing, no per-task
      spawning);
    - chunked loop helpers ({!parallel_for}, {!sum_floats}) whose
      floating-point reductions are deterministic for a fixed
      [(range, pool size)] pair because partials are combined in chunk
      order.

    Its one consumer is the iterative steady-state solvers: the
    matrix–vector product ([Markov.Sparse.mul_vec_into]), the BiCGStab
    reductions and the pooled Jacobi/power sweeps.  State-space
    exploration and CSR assembly are sequential.

    All entry points are coordinator-only: they must be called from the
    domain that owns the pool, never from inside a worker body. *)

(** {1 Global jobs configuration} *)

val resolve : int -> int
(** [resolve jobs] maps a user-facing jobs count to an effective domain
    count: [0] becomes [Domain.recommended_domain_count ()], positive
    values are clamped to a small static maximum, and negative values
    raise [Invalid_argument]. *)

val set_jobs : int -> unit
(** Set the process-wide default jobs count used when an API's [?jobs]
    argument is omitted. [set_jobs 0] auto-detects. Raises
    [Invalid_argument] on negative values. *)

val jobs : unit -> int
(** The current process-wide default (initially [1] = sequential). *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()], exposed for callers that want
    to gate work on real parallelism being available. *)

(** {1 Domain pools} *)

module Pool : sig
  type t
  (** [size - 1] worker domains; the caller's domain acts as worker [0]
      while a loop runs.  The mutex handshake at the end of every batch
      establishes happens-before, so writes made by workers are visible
      to the coordinator afterwards.  If any worker raises, one of the
      raised exceptions is re-raised after all workers finished. *)

  val size : t -> int
end

val pool : ?jobs:int -> unit -> Pool.t option
(** [pool ~jobs ()] returns a cached pool of [resolve jobs] domains, or
    [None] when the effective count is 1 (sequential execution — the
    caller should take its ordinary single-threaded path). Pools are
    cached per size and shut down via [at_exit]. Defaults to the
    process-wide {!jobs} value. *)

(** {1 Chunked loops}

    All helpers fall back to a direct in-place call when the range fits
    a single chunk, so they are safe (just pointless) on tiny inputs.
    When [?chunk] is omitted, the range is split into at most
    [4 * size] chunks, a size deterministic in [(pool size, range
    length)]. *)

val parallel_for :
  Pool.t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~lo ~hi f] calls [f start stop] over disjoint
    sub-ranges covering [lo .. hi - 1]. Chunks are claimed from an
    atomic counter, so the assignment of chunks to workers is
    nondeterministic — the body must only write to locations owned by
    its sub-range. *)

val parallel_chunks :
  Pool.t ->
  ?chunk:int ->
  lo:int ->
  hi:int ->
  (chunk:int -> int -> int -> unit) ->
  int
(** Like {!parallel_for} but passes the chunk ordinal (0-based over a
    grid fixed by [(range, chunk size)]) and returns the number of
    chunks, enabling deterministic per-chunk accumulation. *)

val sum_floats :
  Pool.t -> ?chunk:int -> lo:int -> hi:int -> (int -> int -> float) -> float
(** [sum_floats pool ~lo ~hi f] sums the partial results [f start stop]
    over the chunk grid, combining partials in chunk order — the result
    is a deterministic function of [(range, chunk size, f)], independent
    of scheduling. *)
