type method_ = Direct | Jacobi | Gauss_seidel | Sor of float | Power | Bicgstab

type options = {
  tolerance : float;
  max_iterations : int;
  direct_limit : int;
  residual_stride : int;
}

let default_options =
  { tolerance = 1e-12; max_iterations = 100_000; direct_limit = 3000; residual_stride = 8 }

exception Did_not_converge of { method_used : method_; iterations : int; residual : float }
exception Not_solvable of string

let method_name = function
  | Direct -> "direct"
  | Jacobi -> "jacobi"
  | Gauss_seidel -> "gauss-seidel"
  | Sor _ -> "sor"
  | Power -> "power"
  | Bicgstab -> "bicgstab"

type stats = { method_used : method_; iterations : int; residual : float }

let last = Domain.DLS.new_key (fun () -> None)
let last_stats () = Domain.DLS.get last

(* Telemetry handles (all no-ops while collection is disabled). *)
let solver_iterations = Obs.Metrics.counter "solver_iterations"
let solver_residual = Obs.Metrics.gauge "solver_residual"
let residual_trajectory = Obs.Metrics.series "solver.residual_trajectory"
let sweep_seconds = Obs.Metrics.histogram "solver.sweep_s"
let parallel_sweeps = Obs.Metrics.counter "steady.parallel_sweeps"

(* Below this many states a sweep is microseconds and the pool barrier
   would dominate; the solvers then ignore the pool entirely. *)
let par_threshold_states = 4096

let residual c pi =
  let qt = Ctmc.generator_transposed c in
  let defect = Sparse.mul_vec qt pi in
  Array.fold_left (fun acc v -> max acc (abs_float v)) 0.0 defect

let normalise_into pi =
  let total = Array.fold_left ( +. ) 0.0 pi in
  if total <= 0.0 then raise (Not_solvable "iteration collapsed to the zero vector");
  let inv = 1.0 /. total in
  for i = 0 to Array.length pi - 1 do
    pi.(i) <- pi.(i) *. inv
  done

(* Parallel normalisation.  The chunked sum is deterministic for a
   fixed (length, pool size), so repeated parallel runs agree bitwise;
   it differs from the sequential left fold only by float
   re-association, well inside the solver tolerance. *)
let normalise_into_par p pi =
  let n = Array.length pi in
  let total =
    Par.sum_floats p ~lo:0 ~hi:n (fun lo hi ->
        let s = ref 0.0 in
        for i = lo to hi - 1 do
          s := !s +. pi.(i)
        done;
        !s)
  in
  if total <= 0.0 then raise (Not_solvable "iteration collapsed to the zero vector");
  let inv = 1.0 /. total in
  Par.parallel_for p ~lo:0 ~hi:n (fun lo hi ->
      for i = lo to hi - 1 do
        pi.(i) <- pi.(i) *. inv
      done)


(* --------------------------------------------------------------- *)
(* Direct method                                                    *)
(* --------------------------------------------------------------- *)

let solve_direct options c =
  let n = Ctmc.n_states c in
  if n > options.direct_limit then
    raise
      (Not_solvable
         (Printf.sprintf "chain has %d states, above the direct solver limit of %d" n
            options.direct_limit));
  if n = 0 then [||]
  else begin
    (* Solve Q^T pi = 0 with the last equation replaced by sum pi = 1. *)
    let a = Sparse.to_dense (Ctmc.generator_transposed c) in
    let b = Array.make n 0.0 in
    for j = 0 to n - 1 do
      a.(n - 1).(j) <- 1.0
    done;
    b.(n - 1) <- 1.0;
    let pi =
      try Dense.lu_solve a b
      with Dense.Singular _ ->
        raise (Not_solvable "singular system: the chain has no unique steady state")
    in
    (* Clamp tiny negative values produced by rounding. *)
    let pi = Array.map (fun v -> if v < 0.0 && v > -1e-9 then 0.0 else v) pi in
    normalise_into pi;
    pi
  end

(* --------------------------------------------------------------- *)
(* Iterative methods on Q^T pi = 0                                  *)
(* --------------------------------------------------------------- *)

(* The sweeps below read the CSR arrays of [qt] directly rather than
   through [Sparse.iter_row]: without flambda a closure that updates a
   captured float ref boxes a float on every nonzero. *)

let check_no_absorbing c =
  for i = 0 to Ctmc.n_states c - 1 do
    if Ctmc.is_absorbing c i then
      raise
        (Not_solvable
           (Printf.sprintf "state %d is absorbing; use the direct method for reducible chains" i))
  done

(* Allocation-free iteration driver.  [sweep] advances the candidate one
   step in place (it may use [work] as scratch space and must leave the
   new candidate in [pi]).  The residual — a full sparse matrix-vector
   product — is only measured every [residual_stride] sweeps, which
   roughly halves the cost per iteration for stationary methods whose
   sweep is itself one pass over the matrix.  The iteration count
   reported on failure is the exact number of sweeps performed. *)
(* A warm start must still be a distribution candidate: negative
   entries are clamped, then the copy is normalised.  The mass check
   must come before [normalise_into], whose collapse message would
   blame the iteration for a bad argument. *)
let prepare_initial n initial =
  match initial with
  | None -> Array.make n (1.0 /. float_of_int n)
  | Some v ->
      if Array.length v <> n then
        raise (Not_solvable "warm-start vector has the wrong dimension");
      let pi = Array.map (fun x -> if x > 0.0 then x else 0.0) v in
      if Array.fold_left ( +. ) 0.0 pi <= 0.0 then
        raise (Not_solvable "warm-start vector has no positive mass");
      normalise_into pi;
      pi

let iterate ?initial ?pool ~method_ ~options ~c ~sweep () =
  let n = Ctmc.n_states c in
  let qt = Ctmc.generator_transposed c in
  let pi = prepare_initial n initial in
  let work = Array.make n 0.0 in
  let defect = Array.make n 0.0 in
  let measure () =
    Sparse.mul_vec_into ?pool qt pi defect;
    let m = ref 0.0 in
    for i = 0 to n - 1 do
      let a = abs_float defect.(i) in
      if a > !m then m := a
    done;
    !m
  in
  let renormalise =
    match pool with None -> normalise_into | Some p -> normalise_into_par p
  in
  let obs_on = Obs.Config.enabled () in
  (* Publishing the gauge at every measurement (not just at the end of
     the solve, as before) is what lets the background sampler draw a
     residual-vs-time curve while the iteration is still running. *)
  let record iterations res =
    if obs_on then begin
      Obs.Metrics.set solver_residual res;
      Obs.Metrics.push residual_trajectory ~x:(float_of_int iterations) ~y:res
    end
  in
  let stride = max 1 options.residual_stride in
  let iterations = ref 0 in
  let res = ref (measure ()) in
  record 0 !res;
  (* A single up-front check, decisive when the caller's tolerance
     already admits the uniform vector. *)
  while !res > options.tolerance do
    if !iterations >= options.max_iterations then
      raise (Did_not_converge { method_used = method_; iterations = !iterations; residual = !res });
    let batch = min stride (options.max_iterations - !iterations) in
    let batch_start = if obs_on then Obs.Clock.now () else 0.0 in
    for _ = 1 to batch do
      sweep ~pi ~work;
      renormalise pi
    done;
    if obs_on then
      Obs.Metrics.observe sweep_seconds ((Obs.Clock.now () -. batch_start) /. float_of_int batch);
    if pool <> None then Obs.Metrics.add parallel_sweeps batch;
    iterations := !iterations + batch;
    res := measure ();
    record !iterations !res
  done;
  (pi, !iterations, !res)

(* Damped (weighted) Jacobi: plain Jacobi oscillates on chains whose
   iteration matrix has eigenvalues on the unit circle (e.g. any 2-state
   chain), while the 1/2-damped variant converges whenever the plain
   iteration does not diverge. *)
let solve_jacobi ?initial ?pool options c =
  check_no_absorbing c;
  let qt = Ctmc.generator_transposed c in
  let n = Ctmc.n_states c in
  let omega = 0.5 in
  (* Jacobi rows read only the previous candidate, so splitting rows
     across domains changes nothing in the arithmetic. *)
  let row_ptr = qt.Sparse.row_ptr and col_index = qt.Sparse.col_index in
  let values = qt.Sparse.values in
  let row_range lo hi ~pi ~work =
    for i = lo to hi - 1 do
      let off = ref 0.0 in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col_index.(k) in
        if j <> i then off := !off +. (values.(k) *. pi.(j))
      done;
      work.(i) <- ((1.0 -. omega) *. pi.(i)) +. (omega *. (!off /. Ctmc.exit_rate c i))
    done
  in
  let sweep ~pi ~work =
    (match pool with
    | None -> row_range 0 n ~pi ~work
    | Some p -> Par.parallel_for p ~lo:0 ~hi:n (fun lo hi -> row_range lo hi ~pi ~work));
    Array.blit work 0 pi 0 n
  in
  iterate ?initial ?pool ~method_:Jacobi ~options ~c ~sweep ()

(* Gauss-Seidel is SOR with unit relaxation; both update the candidate
   in place, already using each component's new value within the same
   sweep. *)
let solve_relaxed ?initial ~method_ options c omega =
  if omega <= 0.0 || omega >= 2.0 then
    raise
      (Not_solvable
         (Printf.sprintf "SOR relaxation parameter %g outside the convergent range (0, 2)" omega));
  check_no_absorbing c;
  let qt = Ctmc.generator_transposed c in
  let n = Ctmc.n_states c in
  let row_ptr = qt.Sparse.row_ptr and col_index = qt.Sparse.col_index in
  let values = qt.Sparse.values in
  let sweep ~pi ~work:_ =
    for i = 0 to n - 1 do
      let off = ref 0.0 in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col_index.(k) in
        if j <> i then off := !off +. (values.(k) *. pi.(j))
      done;
      let gs = !off /. Ctmc.exit_rate c i in
      pi.(i) <- if omega = 1.0 then gs else ((1.0 -. omega) *. pi.(i)) +. (omega *. gs)
    done
  in
  iterate ?initial ~method_ ~options ~c ~sweep ()

let solve_sor ?initial options c omega = solve_relaxed ?initial ~method_:(Sor omega) options c omega
let solve_gauss_seidel ?initial options c = solve_relaxed ?initial ~method_:Gauss_seidel options c 1.0

let solve_power ?initial ?pool options c =
  let n = Ctmc.n_states c in
  let lambda = (Ctmc.max_exit_rate c *. 1.02) +. 1e-9 in
  let qt = Ctmc.generator_transposed c in
  (* pi <- pi (I + Q / lambda), computed through the transpose. *)
  let axpy lo hi ~pi ~work =
    for i = lo to hi - 1 do
      pi.(i) <- pi.(i) +. (work.(i) /. lambda)
    done
  in
  let sweep ~pi ~work =
    Sparse.mul_vec_into ?pool qt pi work;
    match pool with
    | None -> axpy 0 n ~pi ~work
    | Some p -> Par.parallel_for p ~lo:0 ~hi:n (fun lo hi -> axpy lo hi ~pi ~work)
  in
  iterate ?initial ?pool ~method_:Power ~options ~c ~sweep ()

(* BiCGStab delegates to the Krylov engine; [Krylov] owns its own
   telemetry (same registry handles).  A scalar breakdown is not a
   verdict on the chain — the candidate is simply handed to the power
   method, the always-convergent sweep, and the stats record the
   method that actually produced the answer (the same convention as
   the auto policy's Gauss-Seidel -> Direct fallback). *)
let solve_bicgstab ?initial ?pool options c =
  check_no_absorbing c;
  let x0 = prepare_initial (Ctmc.n_states c) initial in
  let r =
    Krylov.bicgstab ~initial:x0 ?pool ~tolerance:options.tolerance
      ~max_iterations:options.max_iterations c
  in
  match r.Krylov.outcome with
  | Krylov.Converged ->
      ( r.Krylov.pi,
        { method_used = Bicgstab; iterations = r.Krylov.iterations; residual = r.Krylov.residual } )
  | Krylov.No_convergence ->
      raise
        (Did_not_converge
           { method_used = Bicgstab; iterations = r.Krylov.iterations; residual = r.Krylov.residual })
  | Krylov.Breakdown reason ->
      Obs.Log.info
        "steady.solve: bicgstab breakdown (%s) after %d sweeps; falling back to power iteration"
        reason r.Krylov.iterations;
      let pi, iterations, residual = solve_power ~initial:r.Krylov.pi ?pool options c in
      (pi, { method_used = Power; iterations; residual })

let record_stats stats =
  Domain.DLS.set last (Some stats);
  stats

let solve_stats ?method_ ?(options = default_options) ?initial ?jobs c =
  if Ctmc.n_states c = 0 then
    ([||], record_stats { method_used = Direct; iterations = 0; residual = 0.0 })
  else
    Obs.Span.with_ "steady.solve" (fun span ->
        Obs.Span.add_int span "states" (Ctmc.n_states c);
        (* Gauss-Seidel and SOR propagate new values within a sweep and
           stay sequential (bitwise reproducible at any --jobs); the
           pool accelerates Jacobi and the power method, whose sweeps
           are row-independent. *)
        let pool =
          if Ctmc.n_states c >= par_threshold_states then Par.pool ?jobs ()
          else None
        in
        Obs.Span.add_int span "jobs"
          (match pool with Some p -> Par.Pool.size p | None -> 1);
        let direct () =
          let pi = solve_direct options c in
          (pi, { method_used = Direct; iterations = 0; residual = residual c pi })
        in
        let iterative method_ run =
          let pi, iterations, residual = run () in
          (pi, { method_used = method_; iterations; residual })
        in
        let pi, stats =
          match method_ with
          | Some Direct -> direct ()
          | Some Jacobi -> iterative Jacobi (fun () -> solve_jacobi ?initial ?pool options c)
          | Some Gauss_seidel ->
              iterative Gauss_seidel (fun () -> solve_gauss_seidel ?initial options c)
          | Some (Sor omega) ->
              iterative (Sor omega) (fun () -> solve_sor ?initial options c omega)
          | Some Power -> iterative Power (fun () -> solve_power ?initial ?pool options c)
          | Some Bicgstab -> solve_bicgstab ?initial ?pool options c
          | None -> (
              (* Default policy: Gauss-Seidel, falling back to the direct solver
                 for chains it cannot handle (absorbing states, slow mixing). *)
              let fallback () =
                if Ctmc.n_states c <= options.direct_limit then direct ()
                else raise (Not_solvable "iteration failed and the chain is too large for LU")
              in
              try iterative Gauss_seidel (fun () -> solve_gauss_seidel ?initial options c) with
              | Not_solvable _ -> fallback ()
              | Did_not_converge _ -> fallback ())
        in
        Obs.Span.add_str span "method" (method_name stats.method_used);
        Obs.Span.add_int span "iterations" stats.iterations;
        Obs.Span.add_float span "residual" stats.residual;
        Obs.Metrics.add solver_iterations stats.iterations;
        Obs.Metrics.set solver_residual stats.residual;
        Obs.Log.debug "steady.solve: method=%s iterations=%d residual=%.3e"
          (method_name stats.method_used) stats.iterations stats.residual;
        (pi, record_stats stats))

let solve ?method_ ?options ?initial ?jobs c =
  fst (solve_stats ?method_ ?options ?initial ?jobs c)
