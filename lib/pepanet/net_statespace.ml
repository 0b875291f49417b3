type t = {
  compiled : Net_compile.t;
  lts : Net_semantics.label Pepa.Lts.t;
  markings : Marking.t array;  (* decoded once: the measure layer reads markings constantly *)
}

exception Too_many_markings of int
exception Passive_firing of { marking : string; label : string }

let label_string = function
  | Net_semantics.Local action -> Pepa.Action.to_string action
  | Net_semantics.Fire { action; transition } -> Printf.sprintf "%s!%s" action transition

(* Interchangeable cells: plain cell leaves of the same token family
   that are members of one maximal same-set cooperation chain inside a
   place's context.  Cooperation over a single set is associative and
   commutative, so permuting the *contents* of such cells is an
   automorphism of the marking graph; tokens keep their identity and
   stay in the same place, so every token- and place-level measure is
   unchanged.  Sorting the contents picks one representative marking
   per orbit — and also merges the branch-per-vacant-cell alternatives
   a firing creates, whose rates [of_arrays] then sums. *)
let cell_groups compiled =
  let groups = ref [] in
  let rec flatten set s acc =
    match s with
    | Net_compile.Pcoop (a, s2, b) when Pepa.Syntax.String_set.equal s2 set ->
        flatten set b (flatten set a acc)
    | member -> member :: acc
  in
  let rec walk s =
    match s with
    | Net_compile.Pleaf _ -> ()
    | Net_compile.Pcoop (_, set, _) ->
        let members = List.rev (flatten set s []) in
        List.iter
          (function Net_compile.Pcoop _ as inner -> walk inner | Net_compile.Pleaf _ -> ())
          members;
        let by_family = Hashtbl.create 4 in
        List.iter
          (function
            | Net_compile.Pleaf (Net_compile.Lcell { cell; family }) ->
                Hashtbl.replace by_family family
                  (cell :: Option.value ~default:[] (Hashtbl.find_opt by_family family))
            | Net_compile.Pleaf (Net_compile.Lstatic _) | Net_compile.Pcoop _ -> ())
          members;
        Hashtbl.iter
          (fun _family rev_cells ->
            match rev_cells with
            | [] | [ _ ] -> ()
            | _ -> groups := Array.of_list (List.rev rev_cells) :: !groups)
          by_family
  in
  Array.iter (fun p -> walk p.Net_compile.structure) compiled.Net_compile.places;
  Array.of_list (List.rev !groups)

(* Sort each group's cell codes in place; [true] when the vector
   changed.  Cells of one group share a family, so the codes ([Empty]
   as 0, then tokens by identity and state) order exactly as the cell
   contents do. *)
let canonicalise groups vec =
  let changed = ref false in
  Array.iter
    (fun group ->
      let sorted = ref true in
      for i = 0 to Array.length group - 2 do
        if vec.(group.(i)) > vec.(group.(i + 1)) then sorted := false
      done;
      if not !sorted then begin
        changed := true;
        let values = Array.map (fun cell -> vec.(cell)) group in
        Array.sort compare values;
        Array.iteri (fun i cell -> vec.(cell) <- values.(i)) group
      end)
    groups;
  !changed

(* Bit-packed marking keys: a marking flattens to a vector of bounded
   integers — each cell is [Empty] (0) or [1 + token * family_states +
   state], each static its local state — which {!Pepa.Statekey} packs
   into a few bytes.  Exploration runs on these vectors
   ({!Pepa.Lts.explore}); [decode] turns one back into a marking for
   the semantics and for the [markings] array the measure layer
   reads. *)
type marking_codec = {
  codec : Pepa.Statekey.t;
  cell_states : int array;  (* family local-state count per cell *)
  mc_cells : int;
  mc_statics : int;
}

let marking_codec compiled =
  let n_cells = Net_compile.n_cells compiled in
  let n_statics = compiled.Net_compile.n_statics in
  let n_tokens = Net_compile.n_tokens compiled in
  let cell_states =
    Array.map
      (fun family ->
        Array.length compiled.Net_compile.families.(family).Net_compile.component.Pepa.Compile.states)
      compiled.Net_compile.cell_family
  in
  let cards = Array.make (n_cells + n_statics) 1 in
  for cell = 0 to n_cells - 1 do
    cards.(cell) <- 1 + (n_tokens * cell_states.(cell))
  done;
  for s = 0 to n_statics - 1 do
    cards.(n_cells + s) <-
      Array.length compiled.Net_compile.static_components.(s).Pepa.Compile.states
  done;
  {
    codec = Pepa.Statekey.of_cardinalities cards;
    cell_states;
    mc_cells = n_cells;
    mc_statics = n_statics;
  }

let encode_into mc vec (marking : Marking.t) =
  Array.iteri
    (fun cell c ->
      vec.(cell) <-
        (match c with
        | Marking.Empty -> 0
        | Marking.Tok { token; state } -> 1 + (token * mc.cell_states.(cell)) + state))
    marking.Marking.cells;
  Array.iteri (fun s v -> vec.(mc.mc_cells + s) <- v) marking.Marking.statics

let decode mc vec =
  {
    Marking.cells =
      Array.init mc.mc_cells (fun cell ->
          match vec.(cell) with
          | 0 -> Marking.Empty
          | code ->
              let states = mc.cell_states.(cell) in
              Marking.Tok { token = (code - 1) / states; state = (code - 1) mod states });
    statics = Array.sub vec mc.mc_cells mc.mc_statics;
  }

let build ?(max_markings = 1_000_000) ?(symmetry = false) compiled =
  let groups = if symmetry then cell_groups compiled else [||] in
  let reduction =
    if Array.length groups = 0 then None
    else Some { Pepa.Lts.groups = Array.length groups; canonicalise = canonicalise groups }
  in
  let mc = marking_codec compiled in
  let initial = Array.make (mc.mc_cells + mc.mc_statics) 0 in
  encode_into mc initial (Marking.initial compiled);
  let scratch = Array.make (mc.mc_cells + mc.mc_statics) 0 in
  let successors vec emit =
    let marking = decode mc vec in
    List.iter
      (fun move ->
        let rate =
          match move.Net_semantics.rate with
          | Pepa.Rate.Active r -> r
          | Pepa.Rate.Passive _ ->
              raise
                (Passive_firing
                   {
                     marking = Marking.label compiled marking;
                     label = label_string move.Net_semantics.label;
                   })
        in
        encode_into mc scratch (Net_semantics.apply marking move.Net_semantics.updates);
        emit move.Net_semantics.label rate scratch)
      (Net_semantics.moves compiled marking)
  in
  let lts =
    Pepa.Lts.explore ~stage:"net_statespace.build" ~count_attr:"markings"
      ~max_states:max_markings
      ~overflow:(fun n -> Too_many_markings n)
      ?symmetry:reduction mc.codec initial successors
  in
  {
    compiled;
    lts;
    markings = Array.init (Pepa.Lts.n_states lts) (fun i -> decode mc (Pepa.Lts.state lts i));
  }

let of_string ?max_markings ?symmetry src =
  build ?max_markings ?symmetry (Net_compile.of_string src)

let of_file ?max_markings ?symmetry path =
  build ?max_markings ?symmetry (Net_compile.of_file path)

let compiled t = t.compiled
let n_markings t = Array.length t.markings
let n_transitions t = Pepa.Lts.n_transitions t.lts
let marking t i = t.markings.(i)
let marking_label t i = Marking.label t.compiled t.markings.(i)
let initial_index _ = 0
let iter_transitions t f = Pepa.Lts.iter_transitions t.lts f
let deadlocks t = Pepa.Lts.deadlocks t.lts
let labels t = Pepa.Lts.labels t.lts
let label_flux t pi = Pepa.Lts.label_flux t.lts pi
let ctmc t = Pepa.Lts.ctmc t.lts
let release_derived t = Pepa.Lts.release_derived t.lts

(* Net measures go all the way down to individual markings
   ([marking_probabilities], [Marking.label] in queries), so the only
   classes whose uniform disaggregation is exact for every reported
   measure are cell-permutation orbits: orbit members have equal
   probability (permuting interchangeable cell contents is a chain
   automorphism).  The respect key is therefore each marking's
   canonical form — on a space already built with [~symmetry:true] (or
   one with no interchangeable cells) the keys are distinct per marking
   and the lump pass degenerates to the identity partition. *)
let lump_respect t () =
  let groups = cell_groups t.compiled in
  Pepa.Lts.respect_by t.lts (fun vec ->
      ignore (canonicalise groups vec);
      vec)

let lump_partition t = Pepa.Lts.lump_partition t.lts ~respect:(lump_respect t)

let steady_state ?method_ ?options ?lump ?jobs t =
  Pepa.Lts.steady_state ?method_ ?options ?lump ?jobs ~respect:(lump_respect t) t.lts

let transient t ~time = Pepa.Lts.transient t.lts ~time

let action_names t =
  List.sort_uniq String.compare
    (List.filter_map
       (fun label ->
         match label with
         | Net_semantics.Local action -> Pepa.Action.name action
         | Net_semantics.Fire { action; _ } -> Some action)
       (Array.to_list (labels t)))

let pp_summary fmt t =
  Format.fprintf fmt "%d markings, %d transitions, %d deadlock marking(s)" (n_markings t)
    (n_transitions t)
    (List.length (deadlocks t))
