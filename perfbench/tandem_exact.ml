(* tandem_exact: the large exact solve.  One op is
   [Workbench.analyse_pepa_string] + [Render.pepa_solve] on the
   three-station capacity-40 tandem network (68,921 states) with
   BiCGStab at jobs=1.  The instance is fixed: the seed is accepted
   but every op solves the same model, so runs on different seeds are
   directly comparable. *)

open Common
module W = Choreographer.Workbench
module Render = Choreographer.Render

let stations = 3
let capacity = 40
let name = "tandem_3x40.pepa"
let method_ = Markov.Steady.Bicgstab
let ref_file = "tandem_exact.out"
let source () = Scenarios.Tandem.source ~stations ~capacity

(* The path a user takes: one call to analyse, one to render. *)
let one_call src = Render.pepa_solve (W.analyse_pepa_string ~name ~method_ ~jobs:1 src)

let reference () = read_file (Filename.concat refs_dir ref_file)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let setup_repeats = 3

let run ~seconds =
  (* Set-up is input generation plus one untimed, checked warm-up op;
     it runs [setup_repeats] times and reports the median. *)
  let setups =
    List.init setup_repeats (fun _ ->
        time (fun () ->
            let src = source () in
            let expected = reference () in
            (src, expected, one_call src = expected)))
  in
  let (src, expected, _), _ = List.nth setups (setup_repeats - 1) in
  let warm_failed = List.length (List.filter (fun ((_, _, ok), _) -> not ok) setups) in
  let latencies = ref [] and failed = ref warm_failed in
  let t_start = now () in
  while !latencies = [] || now () -. t_start < seconds do
    let out, dt = time (fun () -> one_call src) in
    if out <> expected then incr failed;
    latencies := dt :: !latencies
  done;
  let lat = !latencies and n = List.length !latencies in
  {
    attempted = n + setup_repeats;
    failed = !failed;
    checks_ok = true;
    metrics =
      [
        m "setup_s" "s" (median (List.map snd setups));
        (* A run holds only a handful of sequential ops, so the rate is
           that of the median op rather than a count over windows. *)
        m "ops_per_s" "1/s" (1.0 /. median lat);
        m "latency_p50_ms" "ms" (1e3 *. median lat);
        m "latency_p99_ms" "ms" (1e3 *. percentile 99.0 lat);
        m "peak_rss_mb" "MB" (peak_rss_mb ());
      ];
    notes =
      [
        Printf.sprintf "latency samples: %d timed ops (+%d checked warm-up ops)" n setup_repeats;
        "latency_p99_ms: nearest rank; with this few ops it is the slowest op";
        "op latencies (ms, in order): "
        ^ String.concat " " (List.rev_map (fun t -> Printf.sprintf "%.0f" (1e3 *. t)) lat);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* The solvers' iteration counter; it counts only while telemetry is on. *)
let iterations_counter = Obs.Metrics.counter "solver_iterations"

type replay = {
  stages : Stages.t;
  output : string;
  n_states : int;
  labels : int;  (** (leaf, local state) pairs the measures stage reports *)
  iterations : int;
  qt : Markov.Sparse.t;
}

(* The one-call path again, stage by stage through the public
   functions, in the order [analyse_pepa_string] and [Render] call
   them.  The CTMC and its transposed generator are forced before the
   solve so that assembly is its own stage. *)
let replay src =
  let st = Stages.create () in
  let model = Stages.run st "pepa.parse" (fun () -> W.parse_pepa ~name src) in
  let compiled, warnings = Stages.run st "pepa.compile" (fun () -> W.compile_pepa ~name model) in
  let space =
    Stages.run st "pepa.explore" (fun () -> W.pepa_space ~name ~jobs:1 ~symmetry:false compiled)
  in
  let qt =
    Stages.run st "markov.assemble" (fun () ->
        Markov.Ctmc.generator_transposed ~jobs:1 (Pepa.Statespace.ctmc space))
  in
  let it0 = Obs.Metrics.value iterations_counter in
  let distribution =
    Stages.run st "markov.solve" (fun () -> W.solve_pepa ~name ~method_ ~jobs:1 ~lump:false space)
  in
  let iterations = Obs.Metrics.value iterations_counter - it0 in
  let results =
    Stages.run st "core.measures" (fun () -> W.pepa_results ~name ~warnings space distribution)
  in
  let output =
    Stages.run st "core.render" (fun () -> Render.pepa_solve { W.space; distribution; results })
  in
  {
    stages = st;
    output;
    n_states = Pepa.Statespace.n_states space;
    labels = List.length results.Choreographer.Results.state_probabilities;
    iterations;
    qt;
  }

(* Explore, assemble and solve at a given job count; the assembly
   reads the process-wide job setting, so it is set for the duration. *)
let staged_at ~jobs src =
  Par.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Par.set_jobs 1)
    (fun () ->
      let model = W.parse_pepa ~name src in
      let compiled, warnings = W.compile_pepa ~name model in
      let space, t_explore =
        time (fun () -> W.pepa_space ~name ~jobs ~symmetry:false compiled)
      in
      let _, t_assemble =
        time (fun () -> Markov.Ctmc.generator_transposed ~jobs (Pepa.Statespace.ctmc space))
      in
      let distribution, t_solve =
        time (fun () -> W.solve_pepa ~name ~method_ ~jobs ~lump:false space)
      in
      let results = W.pepa_results ~name ~warnings space distribution in
      ( Pepa.Statespace.n_states space,
        Render.pepa_solve { W.space; distribution; results },
        (t_explore, t_assemble, t_solve) ))

(* A bare CSR matvec on the instance's Q^T, repeated for at least a
   quarter second; seconds per product. *)
let spmv_seconds qt =
  let n = qt.Markov.Sparse.n_rows in
  let x = Array.make n (1.0 /. float_of_int n) and y = Array.make n 0.0 in
  Markov.Sparse.mul_vec_into qt x y;
  let reps = ref 0 in
  let t0 = now () in
  while !reps < 8 || now () -. t0 < 0.25 do
    Markov.Sparse.mul_vec_into qt x y;
    incr reps
  done;
  (now () -. t0) /. float_of_int !reps

let trace ~seconds =
  let src = source () in
  let expected = reference () in
  let par_jobs = max 2 (nproc ()) in
  let untraced = ref [] and traced = ref [] and replays = ref [] and par = ref [] in
  let attempted = ref 0 and failed = ref 0 and identical = ref true in
  let check out =
    incr attempted;
    if out <> expected then incr failed
  in
  (* Each timed piece starts from a collected heap, so no piece pays for
     the garbage of the one before. *)
  let fresh f =
    Gc.full_major ();
    f ()
  in
  let t_start = now () in
  while !replays = [] || now () -. t_start < seconds do
    Obs.Config.disable ();
    let out, dt = fresh (fun () -> time (fun () -> one_call src)) in
    check out;
    untraced := dt :: !untraced;
    Obs.Config.enable ();
    let out, dt = fresh (fun () -> time (fun () -> one_call src)) in
    check out;
    traced := dt :: !traced;
    let r, wall = fresh (fun () -> time (fun () -> replay src)) in
    check r.output;
    (* The replay must be the same program as the one-call path. *)
    if r.output <> out then identical := false;
    replays := (r, wall) :: !replays;
    let states, out_n, times = fresh (fun () -> staged_at ~jobs:par_jobs src) in
    check out_n;
    if states <> r.n_states || out_n <> r.output then identical := false;
    par := times :: !par;
    Obs.Span.reset ()
  done;
  Obs.Config.disable ();
  let rs = List.map fst !replays in
  let stage name = median (List.map (fun r -> Stages.get r.stages name) rs) in
  let r0 = List.hd rs in
  let n = float_of_int r0.n_states and nnz = Markov.Sparse.nnz r0.qt in
  let spmv = spmv_seconds r0.qt in
  let iterations = median (List.map (fun r -> float_of_int r.iterations) rs) in
  let solve = stage "markov.solve" in
  let ms_per_iter = 1e3 *. solve /. iterations in
  (* Bytes a CSR matvec must move, computed from the layout (values and
     column indices per nonzero, one x gather per nonzero, the row
     pointers, one y store per row); not a hardware counter. *)
  let spmv_bytes = 8.0 *. ((3.0 *. float_of_int nnz) +. (2.0 *. n) +. 1.0) in
  let speedup sequential parallel =
    median (List.map2 (fun r times -> sequential r /. parallel times) rs !par)
  in
  let wall_traced = median !traced in
  let replay_wall = median (List.map snd !replays) in
  {
    attempted = !attempted;
    failed = !failed;
    checks_ok = !identical;
    metrics =
      [
        m "pepa.parse_s" "s" (stage "pepa.parse");
        m "pepa.compile_s" "s" (stage "pepa.compile");
        m "pepa.explore_s" "s" (stage "pepa.explore");
        m "pepa.explore_states_per_s" "1/s" (n /. stage "pepa.explore");
        m "markov.assemble_s" "s" (stage "markov.assemble");
        m "markov.solve_s" "s" solve;
        m "markov.solve_iterations" "count" iterations;
        m "markov.solve_ms_per_iter" "ms" ms_per_iter;
        m "markov.spmv_ns_per_nnz" "ns" (1e9 *. spmv /. float_of_int nnz);
        m "markov.spmv_bytes_computed" "B" spmv_bytes;
        m "markov.iter_over_spmv" "ratio" (ms_per_iter /. (1e3 *. spmv));
        m "core.measures_s" "s" (stage "core.measures");
        m "core.measures_ns_per_state_label" "ns"
          (1e9 *. stage "core.measures" /. (n *. float_of_int r0.labels));
        m "core.render_s" "s" (stage "core.render");
        m "par.explore_speedup" "ratio"
          (speedup (fun r -> Stages.get r.stages "pepa.explore") (fun (t, _, _) -> t));
        m "par.assemble_speedup" "ratio"
          (speedup (fun r -> Stages.get r.stages "markov.assemble") (fun (_, t, _) -> t));
        m "par.solve_speedup" "ratio"
          (speedup (fun r -> Stages.get r.stages "markov.solve") (fun (_, _, t) -> t));
        m "coverage" "ratio"
          (median (List.map (fun (r, wall) -> Stages.total r.stages /. wall) !replays));
        m "trace_overhead" "ratio" (wall_traced /. median !untraced);
      ];
    notes =
      [
        Printf.sprintf "replays: %d; states %d; Q^T nonzeros %d" (List.length rs) r0.n_states
          nnz;
        Printf.sprintf "par.*_speedup: jobs=%d against jobs=1 on %d cores; state counts \
                        and rendered output %s"
          par_jobs (nproc ()) (if !identical then "identical" else "DIFFER");
        Printf.sprintf "stage replay vs one-call output: %s; replay wall / traced one-call wall: %.3f"
          (if !identical then "byte-identical" else "DIFFERENT")
          (replay_wall /. wall_traced);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Reference generation                                                *)
(* ------------------------------------------------------------------ *)

(* Writes the rendered reference after cross-checking the BiCGStab
   distribution against Gauss–Seidel (max per-state difference at most
   1e-10, the bound the repository's own bench holds the solvers to). *)
let write_reference () =
  let src = source () in
  let a = W.analyse_pepa_string ~name ~method_ ~jobs:1 src in
  let gs = W.analyse_pepa_string ~name ~method_:Markov.Steady.Gauss_seidel ~jobs:1 src in
  let dist =
    Array.fold_left max 0.0
      (Array.mapi (fun i p -> Float.abs (p -. gs.W.distribution.(i))) a.W.distribution)
  in
  let rendered = Render.pepa_solve a in
  Printf.printf "tandem_exact: bicgstab vs gauss-seidel: max |dpi| %.3g; rendered tables %s\n%!"
    dist
    (if rendered = Render.pepa_solve gs then "identical" else "differ in printed digits");
  if dist > 1e-10 then failwith "tandem_exact: Gauss-Seidel cross-check failed";
  write_file (Filename.concat refs_dir ref_file) rendered
