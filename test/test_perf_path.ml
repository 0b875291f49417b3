(* The flat-array hot path: array-based CSR assembly checked against a
   list-based reference, transpose round-trips, allocation-free solver
   iteration semantics, and cross-method agreement on the example
   scenarios. *)

module Sp = Markov.Sparse
module St = Markov.Steady

let close = Alcotest.float 1e-9

(* The seed's list-based construction, kept verbatim as the reference
   the counting-sort path must match. *)
let reference_dense ~n_rows ~n_cols triplets =
  let dense = Array.make_matrix n_rows n_cols 0.0 in
  List.iter (fun (i, j, v) -> dense.(i).(j) <- dense.(i).(j) +. v) triplets;
  dense

let check_matrix msg expected m =
  let actual = Sp.to_dense m in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Alcotest.check close (Printf.sprintf "%s (%d,%d)" msg i j) v actual.(i).(j))
        row)
    expected;
  (* Canonical CSR: monotone row_ptr, strictly increasing columns per row. *)
  for i = 0 to m.Sp.n_rows - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s row_ptr monotone at %d" msg i)
      true
      (m.Sp.row_ptr.(i) <= m.Sp.row_ptr.(i + 1));
    for k = m.Sp.row_ptr.(i) to m.Sp.row_ptr.(i + 1) - 2 do
      Alcotest.(check bool)
        (Printf.sprintf "%s columns strictly increasing in row %d" msg i)
        true
        (m.Sp.col_index.(k) < m.Sp.col_index.(k + 1))
    done
  done

let arrays_of_triplets triplets =
  let n = List.length triplets in
  let rows = Array.make n 0 and cols = Array.make n 0 and values = Array.make n 0.0 in
  List.iteri
    (fun k (i, j, v) ->
      rows.(k) <- i;
      cols.(k) <- j;
      values.(k) <- v)
    triplets;
  (rows, cols, values)

let test_of_arrays_explicit () =
  (* Unsorted input with duplicate coordinates summed. *)
  let triplets = [ (2, 1, 1.0); (0, 2, 3.0); (2, 1, 0.5); (0, 0, -1.0); (1, 2, 2.0) ] in
  let rows, cols, values = arrays_of_triplets triplets in
  let m = Sp.of_arrays ~n_rows:3 ~n_cols:3 ~rows ~cols ~values in
  check_matrix "unsorted+duplicates" (reference_dense ~n_rows:3 ~n_cols:3 triplets) m;
  Alcotest.(check int) "duplicates merged" 4 (Sp.nnz m);
  (* The input arrays are not modified. *)
  let rows', cols', values' = arrays_of_triplets triplets in
  Alcotest.(check bool) "rows untouched" true (rows = rows');
  Alcotest.(check bool) "cols untouched" true (cols = cols');
  Alcotest.(check bool) "values untouched" true (values = values');
  (* Empty matrix. *)
  let empty = Sp.of_arrays ~n_rows:4 ~n_cols:2 ~rows:[||] ~cols:[||] ~values:[||] in
  Alcotest.(check int) "empty nnz" 0 (Sp.nnz empty);
  Alcotest.check close "empty get" 0.0 (Sp.get empty 3 1);
  (* Out-of-range and mismatched lengths are rejected. *)
  (match Sp.of_arrays ~n_rows:2 ~n_cols:2 ~rows:[| 2 |] ~cols:[| 0 |] ~values:[| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range row accepted");
  match Sp.of_arrays ~n_rows:2 ~n_cols:2 ~rows:[| 0 |] ~cols:[||] ~values:[| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched lengths accepted"

let triplet_gen =
  let open QCheck2.Gen in
  pair (1 -- 8) (1 -- 8) >>= fun (n_rows, n_cols) ->
  list_size (0 -- 40)
    (triple (0 -- (n_rows - 1)) (0 -- (n_cols - 1)) (float_range (-2.0) 2.0))
  >|= fun triplets -> (n_rows, n_cols, triplets)

let prop_of_arrays_matches_reference =
  QCheck2.Test.make ~name:"array CSR assembly matches list-based reference" ~count:200
    triplet_gen (fun (n_rows, n_cols, triplets) ->
      let rows, cols, values = arrays_of_triplets triplets in
      let m = Sp.of_arrays ~n_rows ~n_cols ~rows ~cols ~values in
      let expected = reference_dense ~n_rows ~n_cols triplets in
      let actual = Sp.to_dense m in
      let ok = ref true in
      Array.iteri
        (fun i row ->
          Array.iteri (fun j v -> if abs_float (v -. actual.(i).(j)) > 1e-9 then ok := false) row)
        expected;
      (* of_triplets must agree with of_arrays on identical input. *)
      let via_list = Sp.of_triplets ~n_rows ~n_cols triplets in
      !ok
      && via_list.Sp.row_ptr = m.Sp.row_ptr
      && via_list.Sp.col_index = m.Sp.col_index
      && via_list.Sp.values = m.Sp.values)

let prop_transpose_round_trip =
  QCheck2.Test.make ~name:"transpose (transpose m) = m" ~count:200 triplet_gen
    (fun (n_rows, n_cols, triplets) ->
      let m = Sp.of_triplets ~n_rows ~n_cols triplets in
      let mtt = Sp.transpose (Sp.transpose m) in
      mtt.Sp.n_rows = m.Sp.n_rows
      && mtt.Sp.n_cols = m.Sp.n_cols
      && mtt.Sp.row_ptr = m.Sp.row_ptr
      && mtt.Sp.col_index = m.Sp.col_index
      && mtt.Sp.values = m.Sp.values)

(* ------------------------------------------------------------------ *)
(* Solver iteration semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_exact_iteration_count () =
  (* An unreachable tolerance forces the cap; the reported count must be
     the exact number of sweeps even when the cap is not a multiple of
     the residual stride. *)
  let c = Markov.Ctmc.of_transitions ~n:2 [ (0, 1, 2.0); (1, 0, 3.0) ] in
  List.iter
    (fun (max_iterations, residual_stride) ->
      let options = { St.default_options with St.tolerance = -1.0; max_iterations; residual_stride } in
      match St.solve ~method_:St.Gauss_seidel ~options c with
      | exception St.Did_not_converge { iterations; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "cap %d stride %d" max_iterations residual_stride)
            max_iterations iterations
      | _ -> Alcotest.fail "negative tolerance converged")
    [ (13, 8); (8, 8); (5, 8); (100, 7); (1, 4) ]

let test_first_check_decisive () =
  (* A tolerance admitting the uniform start vector must return without
     a single sweep. *)
  let c = Markov.Ctmc.of_transitions ~n:2 [ (0, 1, 1.0); (1, 0, 1.0) ] in
  let options = { St.default_options with St.tolerance = 10.0; St.max_iterations = 0 } in
  let pi, stats = St.solve_stats ~method_:St.Gauss_seidel ~options c in
  Alcotest.(check int) "no sweeps" 0 stats.St.iterations;
  Alcotest.check close "uniform" 0.5 pi.(0)

let test_sor () =
  let c = Markov.Ctmc.of_transitions ~n:2 [ (0, 1, 2.0); (1, 0, 3.0) ] in
  let reference = St.solve ~method_:St.Direct c in
  List.iter
    (fun omega ->
      let pi = St.solve ~method_:(St.Sor omega) c in
      Alcotest.(check bool)
        (Printf.sprintf "sor %.2f agrees" omega)
        true
        (Markov.Measures.distribution_distance reference pi < 1e-9))
    [ 0.8; 1.0; 1.2; 1.5 ];
  match St.solve ~method_:(St.Sor 2.5) c with
  | exception St.Not_solvable _ -> ()
  | _ -> Alcotest.fail "out-of-range relaxation accepted"

(* ------------------------------------------------------------------ *)
(* Cross-method agreement on the example scenarios                     *)
(* ------------------------------------------------------------------ *)

let replicated_model n =
  Printf.sprintf
    {|
      Proc = (task, 1.0).(swap, 2.0).Proc;
      Srv = (task, infty).(log, 5.0).Srv;
      system (Proc[%d]) <task> Srv;
    |}
    n

let scenario_chains () =
  [
    ( "file protocol",
      Pepanet.Net_statespace.ctmc
        (Pepanet.Net_statespace.build
           (Pepanet.Net_compile.compile
              (Scenarios.File_protocol.extraction ()).Extract.Ad_to_pepanet.net)) );
    ( "instant message",
      Pepanet.Net_statespace.ctmc
        (Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source) );
    ( "pda handover",
      Pepanet.Net_statespace.ctmc
        (Pepanet.Net_statespace.build
           (Pepanet.Net_compile.compile
              (Scenarios.Pda.extraction ()).Extract.Ad_to_pepanet.net)) );
    ("replicated processes (E6)", Pepa.Statespace.ctmc (Pepa.Statespace.of_string (replicated_model 6)));
  ]

let test_methods_agree_on_scenarios () =
  List.iter
    (fun (name, chain) ->
      let reference = St.solve ~method_:St.Direct chain in
      List.iter
        (fun method_ ->
          let pi = St.solve ~method_ chain in
          let distance = Markov.Measures.distribution_distance reference pi in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s within 1e-9 of direct (distance %.2e)" name
               (St.method_name method_) distance)
            true (distance < 1e-9))
        (* Under-relaxed SOR: over-relaxation can diverge on strongly
           cyclic chains (it does on the instant-message ring). *)
        [ St.Jacobi; St.Gauss_seidel; St.Sor 0.9; St.Power ])
    (scenario_chains ())

(* ------------------------------------------------------------------ *)
(* Transition iterators                                                *)
(* ------------------------------------------------------------------ *)

let test_flat_columns_consistent () =
  let space = Pepa.Statespace.of_string (replicated_model 4) in
  (* iter_transitions visits every transition once, grouped by source
     in state order, and each group is exactly that state's row. *)
  let via_iter = ref [] in
  Pepa.Statespace.iter_transitions space (fun ~src ~action ~rate ~dst ->
      via_iter := (src, action, rate, dst) :: !via_iter);
  Alcotest.(check int)
    "n_transitions is the column length" (List.length !via_iter)
    (Pepa.Statespace.n_transitions space);
  let via_rows = ref [] in
  for s = 0 to Pepa.Statespace.n_states space - 1 do
    Pepa.Statespace.iter_transitions_from space s (fun ~action ~rate ~dst ->
        via_rows := (s, action, rate, dst) :: !via_rows)
  done;
  Alcotest.(check bool) "rows match the stream" true (!via_rows = !via_iter);
  (* The net layer's flux table matches per-transition accounting. *)
  let net = Pepanet.Net_statespace.of_string Scenarios.Instant_message.pepanet_source in
  let pi = Pepanet.Net_statespace.steady_state net in
  let flux = Pepanet.Net_statespace.label_flux net pi in
  let labels = Pepanet.Net_statespace.labels net in
  Array.iteri
    (fun id label ->
      let expected = ref 0.0 in
      Pepanet.Net_statespace.iter_transitions net (fun ~src ~label:l ~rate ~dst:_ ->
          if l = label then expected := !expected +. (pi.(src) *. rate));
      Alcotest.check close (Printf.sprintf "flux of label %d" id) !expected flux.(id))
    labels

let suite =
  [
    Alcotest.test_case "array CSR assembly" `Quick test_of_arrays_explicit;
    QCheck_alcotest.to_alcotest prop_of_arrays_matches_reference;
    QCheck_alcotest.to_alcotest prop_transpose_round_trip;
    Alcotest.test_case "exact iteration count under stride" `Quick test_exact_iteration_count;
    Alcotest.test_case "decisive first residual check" `Quick test_first_check_decisive;
    Alcotest.test_case "SOR" `Quick test_sor;
    Alcotest.test_case "methods agree on example scenarios" `Quick test_methods_agree_on_scenarios;
    Alcotest.test_case "flat columns and list API consistent" `Quick test_flat_columns_consistent;
  ]
