(* All throughput-style measures select from [Net_statespace.label_flux]:
   one pass over the transition stream computes the flux of every
   interned label, and each measure then sums the labels it matches, in
   label-id order. *)

let label_matches_action name = function
  | Net_semantics.Local action -> Pepa.Action.name action = Some name
  | Net_semantics.Fire { action; _ } -> action = name

let passage_endpoints space name =
  let n = Net_statespace.n_markings space in
  let enabled = Array.make n false and entered = Array.make n false in
  Net_statespace.iter_transitions space (fun ~src ~label ~rate:_ ~dst ->
      if label_matches_action name label then begin
        enabled.(src) <- true;
        entered.(dst) <- true
      end);
  let indices flags = List.filter (fun i -> flags.(i)) (List.init n Fun.id) in
  (indices enabled, indices entered)

let flux_sum labels flux matches =
  let total = ref 0.0 in
  Array.iteri (fun id l -> if matches l then total := !total +. flux.(id)) labels;
  !total

let throughput space pi name =
  flux_sum (Net_statespace.labels space) (Net_statespace.label_flux space pi)
    (label_matches_action name)

let throughputs space pi =
  let labels = Net_statespace.labels space and flux = Net_statespace.label_flux space pi in
  List.map
    (fun name -> (name, flux_sum labels flux (label_matches_action name)))
    (Net_statespace.action_names space)

let firing_throughput space pi transition_name =
  flux_sum (Net_statespace.labels space) (Net_statespace.label_flux space pi) (function
    | Net_semantics.Fire { transition; _ } -> transition = transition_name
    | Net_semantics.Local _ -> false)

let token_location_probabilities space pi ~token =
  let compiled = Net_statespace.compiled space in
  let totals = Array.make (Array.length compiled.Net_compile.places) 0.0 in
  for i = 0 to Net_statespace.n_markings space - 1 do
    match Marking.token_place compiled (Net_statespace.marking space i) token with
    | Some place -> totals.(place) <- totals.(place) +. pi.(i)
    | None -> ()
  done;
  Array.to_list
    (Array.mapi (fun p total -> (Net_compile.place_name compiled p, total)) totals)

let expected_tokens_at space pi ~place =
  let compiled = Net_statespace.compiled space in
  let place_index = Net_compile.place_index compiled place in
  let total = ref 0.0 in
  for i = 0 to Net_statespace.n_markings space - 1 do
    let count =
      List.length (Marking.tokens_at compiled (Net_statespace.marking space i) place_index)
    in
    total := !total +. (pi.(i) *. float_of_int count)
  done;
  !total

let marking_probabilities space pi =
  List.init (Net_statespace.n_markings space) (fun i ->
      (Net_statespace.marking_label space i, pi.(i)))
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let token_state_probability space pi ~token ~state_label =
  let compiled = Net_statespace.compiled space in
  let family = Net_compile.family_of_token compiled token in
  let labels = family.Net_compile.component.Pepa.Compile.labels in
  let total = ref 0.0 in
  for i = 0 to Net_statespace.n_markings space - 1 do
    let m = Net_statespace.marking space i in
    match Marking.token_cell m token with
    | Some cell -> (
        match m.Marking.cells.(cell) with
        | Marking.Tok { state; _ } when labels.(state) = state_label ->
            total := !total +. pi.(i)
        | Marking.Tok _ | Marking.Empty -> ())
    | None -> ()
  done;
  !total
