(* The one-pass local-marginal table against the per-(leaf, label)
   computation it replaced, bit for bit, on random PEPA models: plain
   and symmetry-reduced spaces, replica groups whose orbits have several
   members, components whose local states share a label, and
   distributions solved under every aggregation mode. *)

module S = Pepa.Statespace

(* The reference: one pass over the states per (leaf, label), averaging
   over the leaf's orbit — the computation the table must reproduce. *)
let naive_probability space pi ~leaf ~label =
  let compiled = S.compiled space in
  let orbit = Pepa.Symmetry.orbit (S.symmetry space) leaf in
  let scale = 1.0 /. float_of_int (Array.length orbit) in
  let total = ref 0.0 in
  for i = 0 to S.n_states space - 1 do
    let vec = S.state space i in
    let hits = ref 0 in
    Array.iter
      (fun j -> if Pepa.Compile.local_label compiled ~leaf:j ~local:vec.(j) = label then incr hits)
      orbit;
    if !hits > 0 then total := !total +. (pi.(i) *. float_of_int !hits *. scale)
  done;
  !total

let naive_marginals space pi ~leaf =
  let compiled = S.compiled space in
  let component =
    compiled.Pepa.Compile.components.(compiled.Pepa.Compile.leaf_component.(leaf))
  in
  Array.to_list component.Pepa.Compile.labels
  |> List.sort_uniq String.compare
  |> List.map (fun label -> (label, naive_probability space pi ~leaf ~label))

let same_bits (l1, p1) (l2, p2) =
  String.equal l1 l2 && Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p2)

let table_matches space pi =
  let n_leaves = Array.length (S.compiled space).Pepa.Compile.leaf_component in
  List.for_all
    (fun leaf ->
      let expected = naive_marginals space pi ~leaf in
      let table = S.local_marginals space pi ~leaf in
      List.length expected = List.length table
      && List.for_all2 same_bits expected table
      && List.for_all
           (fun (label, p) ->
             same_bits (label, p) (label, S.local_state_probability space pi ~leaf ~label))
           expected)
    (List.init n_leaves Fun.id)

(* A sequential component of one to three prefixes.  A "twin" adds a
   second branch whose rates differ by 1e-7: its derivatives are
   distinct local states that print, and so are labelled, exactly like
   the first branch's. *)
let gen_component name =
  let open QCheck2.Gen in
  let action = oneofl [ "a"; "b"; "c" ] in
  let rate = 1 -- 40 >|= fun r -> float_of_int r /. 10.0 in
  let* steps = list_size (1 -- 3) (pair action rate) in
  let* twin = bool in
  let branch bump =
    String.concat "" (List.map (fun (a, r) -> Printf.sprintf "(%s, %.7f)." a (r +. bump)) steps)
    ^ name
  in
  return
    (if twin && List.length steps >= 2 then
       Printf.sprintf "%s = %s + %s;" name (branch 0.0) (branch 1e-7)
     else Printf.sprintf "%s = %s;" name (branch 0.0))

let gen_model =
  let open QCheck2.Gen in
  let* p = gen_component "P" in
  let* q = gen_component "Q" in
  let* set = oneofl [ "<>"; "<a>"; "<b>"; "<a, b>"; "<a, b, c>" ] in
  let* np = 1 -- 3 in
  let* nq = 1 -- 3 in
  let* nested = bool in
  (* Either two replica arrays side by side, or a replicated pair whose
     orbits run through both members of every copy. *)
  return
    (if nested then Printf.sprintf "%s\n%s\nsystem (P %s Q)[%d];" p q set (max 2 np)
     else Printf.sprintf "%s\n%s\nsystem (P[%d]) %s (Q[%d]);" p q np set nq)

let gen_case =
  QCheck2.Gen.(
    pair gen_model
      (oneofl [ Markov.Lump.No_agg; Markov.Lump.Symmetry; Markov.Lump.Lumping; Markov.Lump.Both ]))

let print_case (source, mode) =
  Printf.sprintf "%s\n(aggregate %s)" source (Markov.Lump.mode_to_string mode)

let prop_table_is_naive =
  QCheck2.Test.make ~name:"one-pass marginal table equals the per-label loop" ~count:80
    ~print:print_case gen_case (fun (source, mode) ->
      let space = S.of_string ~symmetry:(Markov.Lump.symmetry_enabled mode) source in
      match S.steady_state ~lump:(Markov.Lump.lumping_enabled mode) space with
      | exception Markov.Steady.Not_solvable _ -> QCheck2.assume_fail ()
      | pi ->
          (* The table is kept per distribution: a second distribution
             on the same space must not be answered from the first. *)
          let halved = Array.map (fun p -> p *. 0.5) pi in
          table_matches space pi && table_matches space halved && table_matches space pi)

(* The cases the generator only sometimes reaches, pinned. *)
let test_orbits_and_shared_labels () =
  let source =
    "P = (a, 1.0000000).(b, 2.0000000).P + (a, 1.0000001).(b, 2.0000001).P;\n\
     Q = (a, 3.0).(c, 0.5).Q;\n\
     system (P[3]) <a> Q;"
  in
  let reduced = S.of_string ~symmetry:true source in
  let compiled = S.compiled reduced in
  let labels = compiled.Pepa.Compile.components.(0).Pepa.Compile.labels in
  Alcotest.(check bool) "P has two local states with one label" true
    (List.length (List.sort_uniq String.compare (Array.to_list labels)) < Array.length labels);
  Alcotest.(check int) "P's orbit has three members" 3
    (Array.length (Pepa.Symmetry.orbit (S.symmetry reduced) 0));
  let pi = S.steady_state reduced in
  Alcotest.(check bool) "symmetry-reduced table is bit-identical" true (table_matches reduced pi);
  let full = S.of_string source in
  Alcotest.(check bool) "full table is bit-identical" true
    (table_matches full (S.steady_state full))

let suite =
  [
    Alcotest.test_case "orbits and shared labels" `Quick test_orbits_and_shared_labels;
    QCheck_alcotest.to_alcotest prop_table_is_naive;
  ]
