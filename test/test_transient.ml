module C = Markov.Ctmc
module T = Markov.Transient

let close = Alcotest.float 1e-7

let test_poisson_weights () =
  List.iter
    (fun lambda_t ->
      let offset, weights = T.poisson_weights ~lambda_t ~epsilon:1e-12 in
      let total = Array.fold_left ( +. ) 0.0 weights in
      Alcotest.check close (Printf.sprintf "weights sum (lt=%g)" lambda_t) 1.0 total;
      let mean = ref 0.0 in
      Array.iteri (fun k w -> mean := !mean +. (w *. float_of_int (offset + k))) weights;
      Alcotest.(check bool)
        (Printf.sprintf "mean close to %g" lambda_t)
        true
        (abs_float (!mean -. lambda_t) < 1e-6 +. (lambda_t *. 1e-9)))
    [ 0.0; 0.3; 1.0; 7.5; 40.0; 400.0; 4000.0 ]

let two_state lambda mu = C.of_transitions ~n:2 [ (0, 1, lambda); (1, 0, mu) ]

(* Analytic transient of the two-state chain starting in state 0:
   p1(t) = l/(l+m) (1 - exp(-(l+m) t)). *)
let test_two_state_analytic () =
  let lambda = 2.0 and mu = 3.0 in
  let c = two_state lambda mu in
  List.iter
    (fun t ->
      let p = T.probabilities c ~initial:[| 1.0; 0.0 |] ~t in
      let expected = lambda /. (lambda +. mu) *. (1.0 -. exp (-.(lambda +. mu) *. t)) in
      Alcotest.check close (Printf.sprintf "p1(%g)" t) expected p.(1);
      Alcotest.check close "mass conserved" 1.0 (p.(0) +. p.(1)))
    [ 0.0; 0.01; 0.1; 0.5; 1.0; 3.0 ]

let test_convergence_to_steady_state () =
  let c = C.of_transitions ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 3.0); (1, 0, 0.5) ] in
  let steady = Markov.Steady.solve c in
  let initial = [| 1.0; 0.0; 0.0 |] in
  let late = T.probabilities c ~initial ~t:200.0 in
  Alcotest.(check bool) "t -> infinity approaches steady state" true
    (Markov.Measures.distribution_distance steady late < 1e-8)

let test_absorbing_transient () =
  (* Pure death chain: probability of absorption grows monotonically. *)
  let c = C.of_transitions ~n:2 [ (0, 1, 1.0) ] in
  let p t = (T.probabilities c ~initial:[| 1.0; 0.0 |] ~t).(1) in
  Alcotest.check close "p(1.0)" (1.0 -. exp (-1.0)) (p 1.0);
  Alcotest.(check bool) "monotone" true (p 0.5 < p 1.0 && p 1.0 < p 2.0)

let test_rewards_and_guards () =
  let c = two_state 1.0 1.0 in
  let reward = T.expected_reward c ~initial:[| 1.0; 0.0 |] ~rewards:[| 0.0; 10.0 |] ~t:100.0 in
  Alcotest.check close "expected reward at equilibrium" 5.0 reward;
  Alcotest.check close "point probability" 0.5
    (T.point_probability c ~initial:[| 1.0; 0.0 |] ~t:100.0 ~state:0);
  (match T.probabilities c ~initial:[| 0.5; 0.4 |] ~t:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unnormalised initial accepted");
  match T.probabilities c ~initial:[| 1.0; 0.0 |] ~t:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative time accepted"

let test_measures () =
  let pi = [| 0.25; 0.25; 0.5 |] in
  Alcotest.check close "expectation" 1.25
    (Markov.Measures.expectation pi (fun i -> float_of_int i));
  Alcotest.check close "probability" 0.75 (Markov.Measures.probability pi (fun i -> i > 0));
  Alcotest.check close "flow" 1.0
    (Markov.Measures.flow pi [ (0, 1, 2.0); (2, 0, 1.0) ] (fun _ -> true));
  Alcotest.check close "mean recurrence" 4.0 (Markov.Measures.mean_recurrence_time pi 0);
  Alcotest.(check bool) "unvisited recurrence infinite" true
    (Markov.Measures.mean_recurrence_time [| 0.0; 1.0 |] 0 = infinity)

let suite =
  [
    Alcotest.test_case "poisson weights" `Quick test_poisson_weights;
    Alcotest.test_case "two-state analytic transient" `Quick test_two_state_analytic;
    Alcotest.test_case "convergence to steady state" `Quick test_convergence_to_steady_state;
    Alcotest.test_case "absorbing transient" `Quick test_absorbing_transient;
    Alcotest.test_case "rewards and input guards" `Quick test_rewards_and_guards;
    Alcotest.test_case "reward measures" `Quick test_measures;
  ]
