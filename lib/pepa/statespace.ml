type t = {
  compiled : Compile.t;
  symmetry : Symmetry.t;  (* trivial unless built with ~symmetry:true *)
  lts : Action.t Lts.t;
  mutable marginals : (float array * (string * float) list array) option;
      (* the marginal table of the last distribution asked about *)
}

exception Too_many_states of int
exception Passive_transition of { state : string; action : string }

let states_explored = Lts.states_explored
let transitions_emitted = Lts.transitions_emitted
let intern_collisions = Lts.intern_collisions
let canonical_hits = Lts.canonical_hits
let frontier_states = Lts.frontier_states
let packed_key_bytes = Lts.packed_key_bytes
let packed_arena_bytes = Lts.packed_arena_bytes

let codec_of compiled =
  Statekey.of_cardinalities
    (Array.map
       (fun comp -> Array.length compiled.Compile.components.(comp).Compile.states)
       compiled.Compile.leaf_component)

let build ?(max_states = 1_000_000) ?(symmetry = false) compiled =
  (* Replica symmetry: every explored vector is canonicalised before
     interning, so an orbit of permutation-equivalent states collapses
     to one representative (counter abstraction).  Sound because the
     permutations are automorphisms of the labelled chain — the reduced
     chain is its exact ordinary lumping. *)
  let sym = if symmetry then Symmetry.detect compiled else Symmetry.trivial in
  let reduction =
    if Symmetry.is_trivial sym then None
    else Some { Lts.groups = Symmetry.n_groups sym; canonicalise = Symmetry.canonicalise sym }
  in
  let successors vec emit =
    List.iter
      (fun move ->
        let rate =
          match move.Semantics.rate with
          | Rate.Active r -> r
          | Rate.Passive _ ->
              raise
                (Passive_transition
                   {
                     state = Compile.state_label compiled vec;
                     action = Action.to_string move.Semantics.action;
                   })
        in
        emit move.Semantics.action rate (Semantics.apply vec move.Semantics.deltas))
      (Semantics.moves compiled vec)
  in
  let lts =
    Lts.explore ~stage:"statespace.build" ~count_attr:"states" ~max_states
      ~overflow:(fun n -> Too_many_states n)
      ?symmetry:reduction (codec_of compiled) (Compile.initial_state compiled) successors
  in
  { compiled; symmetry = sym; lts; marginals = None }

let of_string ?max_states ?symmetry src =
  build ?max_states ?symmetry (Compile.of_string src)

let compiled t = t.compiled
let symmetry t = t.symmetry
let n_states t = Lts.n_states t.lts
let n_transitions t = Lts.n_transitions t.lts
let state t i = Lts.state t.lts i
let state_label t i = Compile.state_label t.compiled (state t i)
let initial_index _ = 0

let iter_transitions_from t s f =
  Lts.iter_transitions_from t.lts s (fun ~label ~rate ~dst -> f ~action:label ~rate ~dst)

let iter_transitions t f =
  Lts.iter_transitions t.lts (fun ~src ~label ~rate ~dst -> f ~src ~action:label ~rate ~dst)

let deadlocks t = Lts.deadlocks t.lts

let action_names t =
  List.sort_uniq String.compare
    (List.filter_map Action.name (Array.to_list (Lts.labels t.lts)))

let ctmc t = Lts.ctmc t.lts

let release_derived t =
  Lts.release_derived t.lts;
  t.marginals <- None

(* The lump partition's classes must keep every reported measure exact
   under uniform disaggregation.  Ordinary lumpability alone guarantees
   exact class sums, not exact per-state probabilities, so the
   refinement is seeded with a respect key restricting which states may
   ever share a class:

   - with replica symmetry, each state's orbit (its canonicalised leaf
     vector): orbit members have equal steady-state probability (the
     permutations are chain automorphisms), so spreading a class mass
     uniformly is exact per state;
   - otherwise, each state's per-leaf local-label vector: classes are
     then homogeneous in the indicator of every local-state label, so
     the [local_marginals] (and all fluxes) survive even though merged
     states may have unequal probabilities.

   On a space already built with [~symmetry:true] the stored vectors are
   themselves canonical, the orbit keys are distinct per state, and the
   lump pass degenerates to the identity partition — correctly so, since
   distinct representatives are distinguishable by some local measure. *)
let lump_respect t () =
  let sym =
    if Symmetry.is_trivial t.symmetry then Symmetry.detect t.compiled else t.symmetry
  in
  if not (Symmetry.is_trivial sym) then
    Lts.respect_by t.lts (fun vec ->
        ignore (Symmetry.canonicalise sym vec);
        vec)
  else
    Lts.respect_by t.lts
      (Array.mapi (fun leaf local -> Compile.local_label t.compiled ~leaf ~local))

let lump_partition t = Lts.lump_partition t.lts ~respect:(lump_respect t)

let steady_state ?method_ ?options ?initial ?lump ?jobs t =
  Lts.steady_state ?method_ ?options ?initial ?lump ?jobs ~respect:(lump_respect t) t.lts

let transient t ~time = Lts.transient t.lts ~time

let throughputs t pi =
  let flux = Lts.label_flux t.lts pi in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.filter_map
       (fun (id, action) -> Option.map (fun name -> (name, flux.(id))) (Action.name action))
       (List.mapi (fun id action -> (id, action)) (Array.to_list (Lts.labels t.lts))))

(* Each named action type has exactly one interned id, so its entry of
   the per-label flux is its throughput. *)
let throughput t pi name = Option.value ~default:0.0 (List.assoc_opt name (throughputs t pi))

(* Every leaf's local-state marginals in one pass over the packed
   states.  Under symmetry reduction a single leaf's column of the
   canonical vectors is not its true marginal (canonicalisation shuffles
   values across the orbit), but the orbit-count is permutation
   invariant, so averaging over the leaf's orbit recovers the exact
   measure; with trivial symmetry every orbit is a singleton.  Leaves of
   one orbit share one accumulator per label, and each state adds
   [pi.(i) *. float hits *. scale] to it only when [hits > 0] — the same
   float sequence, accumulator by accumulator, as summing each
   (leaf, label) separately, so the table is bit-identical to that
   O(labels x states) computation at O(states x leaves) cost. *)
let marginal_table t pi =
  let compiled = t.compiled in
  let n_leaves = Array.length compiled.Compile.leaf_component in
  let labels leaf =
    compiled.Compile.components.(compiled.Compile.leaf_component.(leaf)).Compile.labels
  in
  (* Orbits partition the leaves; each is listed once, by its smallest
     member. *)
  let orbits =
    List.init n_leaves (Symmetry.orbit t.symmetry)
    |> List.filteri (fun leaf members -> Array.fold_left min leaf members = leaf)
    |> Array.of_list
  in
  let orbit_of = Array.make n_leaves 0 in
  Array.iteri (fun o members -> Array.iter (fun j -> orbit_of.(j) <- o) members) orbits;
  (* Labels interned per orbit: [label_id.(o).(m).(local)] is the id of
     the label of local state [local] of the orbit's [m]-th member. *)
  let ids = Array.map (fun _ -> Hashtbl.create 16) orbits in
  let intern o label =
    match Hashtbl.find_opt ids.(o) label with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids.(o) in
        Hashtbl.add ids.(o) label id;
        id
  in
  let label_id =
    Array.mapi (fun o members -> Array.map (fun j -> Array.map (intern o) (labels j)) members) orbits
  in
  let acc = Array.map (fun tbl -> Array.make (Hashtbl.length tbl) 0.0) ids in
  let scale = Array.map (fun members -> 1.0 /. float_of_int (Array.length members)) orbits in
  let hits = Array.make (Array.fold_left (fun m a -> max m (Array.length a)) 0 acc) 0 in
  let vec = Array.make n_leaves 0 in
  for i = 0 to n_states t - 1 do
    Lts.state_into t.lts i vec;
    let p = pi.(i) in
    for o = 0 to Array.length orbits - 1 do
      let members = orbits.(o) and ids = label_id.(o) and a = acc.(o) in
      for m = 0 to Array.length members - 1 do
        let id = ids.(m).(vec.(members.(m))) in
        hits.(id) <- hits.(id) + 1
      done;
      for m = 0 to Array.length members - 1 do
        let id = ids.(m).(vec.(members.(m))) in
        let h = hits.(id) in
        if h > 0 then begin
          a.(id) <- a.(id) +. (p *. float_of_int h *. scale.(o));
          hits.(id) <- 0
        end
      done
    done
  done;
  Array.init n_leaves (fun leaf ->
      let o = orbit_of.(leaf) in
      Array.to_list (labels leaf)
      |> List.sort_uniq String.compare
      |> List.map (fun label -> (label, acc.(o).(Hashtbl.find ids.(o) label))))

let local_marginals t pi ~leaf =
  let table =
    match t.marginals with
    | Some (key, table) when key == pi -> table
    | _ ->
        let table = marginal_table t pi in
        t.marginals <- Some (pi, table);
        table
  in
  table.(leaf)

let local_state_probability t pi ~leaf ~label =
  Option.value ~default:0.0 (List.assoc_opt label (local_marginals t pi ~leaf))

let pp_summary fmt t =
  Format.fprintf fmt "%d states, %d transitions, %d deadlock state(s)" (n_states t)
    (n_transitions t)
    (List.length (deadlocks t))
