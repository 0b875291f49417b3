module C = Markov.Ctmc
module Sim = Markov.Simulate

let rng () = Sim.Rng.create ~seed:42L

let two_state lambda mu = C.of_transitions ~n:2 [ (0, 1, lambda); (1, 0, mu) ]

let test_rng () =
  let r = rng () in
  (* deterministic given a seed *)
  let a = Sim.Rng.uniform (Sim.Rng.create ~seed:7L) in
  let b = Sim.Rng.uniform (Sim.Rng.create ~seed:7L) in
  Alcotest.(check (float 0.0)) "reproducible" a b;
  (* in range, not constant *)
  let values = List.init 1000 (fun _ -> Sim.Rng.uniform r) in
  Alcotest.(check bool) "in (0,1)" true (List.for_all (fun v -> v > 0.0 && v < 1.0) values);
  let mean = List.fold_left ( +. ) 0.0 values /. 1000.0 in
  Alcotest.(check bool) "roughly centred" true (abs_float (mean -. 0.5) < 0.05);
  (* exponential sample mean approaches 1/rate *)
  let exps = List.init 2000 (fun _ -> Sim.Rng.exponential r ~rate:4.0) in
  let emean = List.fold_left ( +. ) 0.0 exps /. 2000.0 in
  Alcotest.(check bool) "exponential mean" true (abs_float (emean -. 0.25) < 0.02);
  match Sim.Rng.exponential r ~rate:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero rate accepted"

let test_trajectory () =
  let c = two_state 2.0 3.0 in
  let path = Sim.trajectory c ~rng:(rng ()) ~initial:0 ~horizon:100.0 in
  (match path with
  | { Sim.time = 0.0; state = 0 } :: _ -> ()
  | _ -> Alcotest.fail "path must start at (0, initial)");
  Alcotest.(check bool) "many jumps in 100 time units" true (List.length path > 50);
  (* times increase, states alternate on the two-state chain *)
  let rec check = function
    | { Sim.time = t1; state = s1 } :: ({ Sim.time = t2; state = s2 } :: _ as rest) ->
        t2 > t1 && s1 <> s2 && check rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone alternating path" true (check path);
  (* absorbing chains stop *)
  let absorbing = C.of_transitions ~n:2 [ (0, 1, 1.0) ] in
  let short = Sim.trajectory absorbing ~rng:(rng ()) ~initial:0 ~horizon:1000.0 in
  Alcotest.(check bool) "absorbed path is finite" true (List.length short <= 2)

let test_steady_state_estimate () =
  (* Estimated occupancy of state 1 brackets the exact value. *)
  let lambda = 2.0 and mu = 3.0 in
  let c = two_state lambda mu in
  let exact = lambda /. (lambda +. mu) in
  let est =
    Sim.steady_state_estimate c ~rng:(rng ()) ~initial:0 ~batches:20 ~batch_time:100.0
      ~warmup:20.0
      ~reward:(fun s -> if s = 1 then 1.0 else 0.0)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "CI brackets the exact answer (%.4f in %.4f +/- %.4f)" exact est.Sim.mean
       est.Sim.half_width)
    true
    (abs_float (est.Sim.mean -. exact) < Float.max est.Sim.half_width 0.02);
  Alcotest.(check bool) "interval is informative" true (est.Sim.half_width < 0.1)

let test_throughput_estimate () =
  (* Jumps 0 -> 1 occur at the exact throughput lambda * pi_0. *)
  let lambda = 2.0 and mu = 3.0 in
  let c = two_state lambda mu in
  let exact = lambda *. (mu /. (lambda +. mu)) in
  let est =
    Sim.throughput_estimate c ~rng:(rng ()) ~initial:0 ~batches:20 ~batch_time:100.0
      ~warmup:10.0
      ~counts:(fun src dst -> src = 0 && dst = 1)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "CI brackets the exact throughput (%.4f in %.4f +/- %.4f)" exact
       est.Sim.mean est.Sim.half_width)
    true
    (abs_float (est.Sim.mean -. exact) < Float.max (2.0 *. est.Sim.half_width) 0.05)

let test_transient_estimate () =
  (* Against the uniformisation answer on the two-state chain. *)
  let c = two_state 2.0 3.0 in
  let t = 0.4 in
  let exact =
    (Markov.Transient.probabilities c ~initial:[| 1.0; 0.0 |] ~t).(1)
  in
  let est =
    Sim.transient_estimate c ~rng:(rng ()) ~initial:0 ~replications:4000 ~t
      ~reward:(fun s -> if s = 1 then 1.0 else 0.0)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "simulation agrees with uniformisation (%.4f vs %.4f +/- %.4f)" exact
       est.Sim.mean est.Sim.half_width)
    true
    (abs_float (est.Sim.mean -. exact) < Float.max (2.0 *. est.Sim.half_width) 0.03)

let test_simulation_vs_solver_on_scenario () =
  (* The paper's complementarity claim in action: simulate the PDA
     marking chain and compare with the numerical solution. *)
  let ex = Scenarios.Pda.extraction () in
  let space = Pepanet.Net_statespace.build (Pepanet.Net_compile.compile ex.Extract.Ad_to_pepanet.net) in
  let chain = Pepanet.Net_statespace.ctmc space in
  let pi = Pepanet.Net_statespace.steady_state space in
  let exact = Pepanet.Net_measures.throughput space pi "handover" in
  (* handover jumps: the transitions labelled with the firing *)
  let handover_jumps = Hashtbl.create 16 in
  Pepanet.Net_statespace.iter_transitions space (fun ~src ~label ~rate:_ ~dst ->
      match label with
      | Pepanet.Net_semantics.Fire { action = "handover"; _ } ->
          Hashtbl.replace handover_jumps (src, dst) ()
      | _ -> ());
  let est =
    Sim.throughput_estimate chain ~rng:(rng ()) ~initial:0 ~batches:20 ~batch_time:200.0
      ~warmup:20.0
      ~counts:(fun src dst -> Hashtbl.mem handover_jumps (src, dst))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.4f +/- %.4f vs exact %.4f" est.Sim.mean est.Sim.half_width
       exact)
    true
    (abs_float (est.Sim.mean -. exact) < Float.max (3.0 *. est.Sim.half_width) 0.02)

let test_guards () =
  let c = two_state 1.0 1.0 in
  (match Sim.trajectory c ~rng:(rng ()) ~initial:9 ~horizon:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad initial accepted");
  (match Sim.steady_state_estimate c ~rng:(rng ()) ~initial:0 ~batches:1 ~reward:(fun _ -> 1.0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single batch accepted");
  match Sim.transient_estimate c ~rng:(rng ()) ~initial:0 ~replications:1 ~t:1.0 ~reward:(fun _ -> 1.0) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single replication accepted"

let suite =
  [
    Alcotest.test_case "rng" `Quick test_rng;
    Alcotest.test_case "trajectories" `Quick test_trajectory;
    Alcotest.test_case "steady-state estimation" `Quick test_steady_state_estimate;
    Alcotest.test_case "throughput estimation" `Quick test_throughput_estimate;
    Alcotest.test_case "transient estimation" `Quick test_transient_estimate;
    Alcotest.test_case "simulation vs solver (PDA)" `Quick test_simulation_vs_solver_on_scenario;
    Alcotest.test_case "input guards" `Quick test_guards;
  ]
