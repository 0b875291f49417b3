(** Batch parameter sweeps over one PEPA model: the cartesian product
    of the request's axes (rate constants redefined per value, replica
    counts rewritten per value), each point solved by the chosen
    backend through the {!Choreographer.Workbench} compositions, with
    adjacent points warm-starting each other.

    Warm starting exploits grid locality: the steady-state distribution
    at one point is an excellent initial vector for the next (exact
    backend, {!Choreographer.Workbench.pepa_exact} [?initial]), and the
    fluid fixed point an excellent initial condition
    ({!Choreographer.Workbench.pepa_fluid} [?x0]) —
    both converge in a fraction of the cold iteration count while
    reaching the same answer to within solver tolerance (the service
    tests pin this to 1e-10 on throughputs).  A point whose replica
    counts differ from the previous point's starts cold: the exact
    chain changes dimension, and the fluid populations would carry the
    old counts.  The lumped backend always solves cold. *)

type point = {
  assignment : (string * float) list;  (** axis name → value, row-major order *)
  n_states : int;  (** chain size, or ODE dimension for the fluid backend *)
  iterations : int;  (** solver sweeps, or accepted RK45 steps *)
  warm : bool;  (** whether this point started from the previous solution *)
  solve_s : float;  (** wall time of this point, rewrite included *)
  throughputs : (string * float) list;
}

type result = { points : point list; total_s : float }

val run :
  name:string ->
  model:Pepa.Syntax.model ->
  options:Protocol.options ->
  axes:Protocol.axis list ->
  backend:Protocol.backend ->
  warm_start:bool ->
  result
(** Raises {!Choreographer.Workbench.Analysis_error} when an axis
    names no rate definition / replicated component, or on any
    per-point analysis failure; solver non-convergence escapes as
    usual. *)

val to_json : backend:Protocol.backend -> warm_start:bool -> result -> Obs.Json.t
(** The wire (and CI artifact) shape: [{"backend", "warm_start",
    "points": [{"assignment", "n_states", "iterations", "warm",
    "solve_s", "throughputs"}], "total_s"}]. *)
