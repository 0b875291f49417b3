(* Same compressed stream layout as [Pepa.Statespace]: [row_start] is
   the src column's run-length encoding (no src column is stored), and
   each transition packs destination and interned label id into one
   word next to its rate. *)
type t = {
  compiled : Net_compile.t;
  markings : Marking.t array;
  tr_pack : int array;  (* dst in the low bits, interned label id above *)
  tr_rate : float array;
  labels : Net_semantics.label array;  (* interned label table *)
  row_start : int array;  (* CSR over transitions grouped by src; length n_markings + 1 *)
  mutable chain : Markov.Ctmc.t option;
  mutable lump : Markov.Lump.t option;
}

(* Same packing split as [Pepa.Statespace]: destination in the low 48
   bits, label id above, guarded at intern time. *)
let pack_dst_bits = 48
let pack_dst_mask = (1 lsl pack_dst_bits) - 1
let max_interned_labels = 1 lsl (62 - pack_dst_bits)
let pack ~dst ~label = (label lsl pack_dst_bits) lor dst
let tr_dst t k = t.tr_pack.(k) land pack_dst_mask
let tr_label_id t k = t.tr_pack.(k) lsr pack_dst_bits

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

(* Sort each group's cell contents (with [Empty] ordering before any
   token); returns the input marking unchanged when already canonical. *)
let canonicalise groups marking =
  let cells = ref None in
  Array.iter
    (fun group ->
      let current = match !cells with Some c -> c | None -> marking.Marking.cells in
      let k = Array.length group in
      let sorted = ref true in
      for i = 0 to k - 2 do
        if compare current.(group.(i)) current.(group.(i + 1)) > 0 then sorted := false
      done;
      if not !sorted then begin
        let c =
          match !cells with
          | Some c -> c
          | None ->
              let c = Array.copy marking.Marking.cells in
              cells := Some c;
              c
        in
        let values = Array.map (fun cell -> c.(cell)) group in
        Array.sort compare values;
        Array.iteri (fun i cell -> c.(cell) <- values.(i)) group
      end)
    groups;
  match !cells with
  | None -> (marking, false)
  | Some c -> ({ marking with Marking.cells = c }, true)

(* Bit-packed marking keys: a marking flattens to a vector of bounded
   integers — each cell is [Empty] (0) or [1 + token * family_states +
   state], each static its local state — which {!Pepa.Statekey} packs
   into a few bytes.  The intern table holds these compact keys
   instead of boxed marking records; the decoded [markings] array
   survives for the measure layer, which reads individual markings
   constantly. *)
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

let build ?(max_markings = 1_000_000) ?(symmetry = false) compiled =
  Obs.Span.with_ "net_statespace.build" (fun span ->
  let obs_on = Obs.Config.enabled () in
  let progress_every = Obs.Config.progress_interval () in
  let groups = if symmetry then cell_groups compiled else [||] in
  let hits = ref 0 in
  let canonical marking =
    if Array.length groups = 0 then marking
    else begin
      let marking, changed = canonicalise groups marking in
      if changed then incr hits;
      marking
    end
  in
  let mc = marking_codec compiled in
  let key_size = Pepa.Statekey.size mc.codec in
  let scratch_vec = Array.make (mc.mc_cells + mc.mc_statics) 0 in
  let scratch_key = Bytes.create key_size in
  let index : (Bytes.t, int) Hashtbl.t = Hashtbl.create 1024 in
  let markings = ref (Array.make 1024 (Marking.initial compiled)) in
  let n_markings = ref 0 in
  let intern marking =
    encode_into mc scratch_vec marking;
    Pepa.Statekey.pack_into mc.codec scratch_vec scratch_key 0;
    match Hashtbl.find_opt index scratch_key with
    | Some i -> i
    | None ->
        if !n_markings >= max_markings then raise (Too_many_markings max_markings);
        let i = !n_markings in
        if i >= Array.length !markings then begin
          let bigger = Array.make (2 * Array.length !markings) marking in
          Array.blit !markings 0 bigger 0 i;
          markings := bigger
        end;
        !markings.(i) <- marking;
        Hashtbl.add index (Bytes.copy scratch_key) i;
        incr n_markings;
        i
  in
  (* Compressed transition buffers, as in [Pepa.Statespace]: sources
     arrive in nondecreasing order, so the src column reduces to
     per-source counts recorded at emission. *)
  let tr_cap = ref 4096 in
  let tr_pack = ref (Array.make !tr_cap 0) in
  let tr_rate = ref (Array.make !tr_cap 0.0) in
  let n_transitions = ref 0 in
  let rc_cap = ref 4096 in
  let row_count = ref (Array.make !rc_cap 0) in
  let push src dst rate label =
    if !n_transitions = !tr_cap then begin
      let grow_int a = let b = Array.make (2 * !tr_cap) 0 in Array.blit a 0 b 0 !tr_cap; b in
      let grow_float a = let b = Array.make (2 * !tr_cap) 0.0 in Array.blit a 0 b 0 !tr_cap; b in
      tr_pack := grow_int !tr_pack;
      tr_rate := grow_float !tr_rate;
      tr_cap := 2 * !tr_cap
    end;
    if src >= !rc_cap then begin
      let cap = ref (2 * !rc_cap) in
      while src >= !cap do
        cap := 2 * !cap
      done;
      let b = Array.make !cap 0 in
      Array.blit !row_count 0 b 0 !rc_cap;
      row_count := b;
      rc_cap := !cap
    end;
    !row_count.(src) <- !row_count.(src) + 1;
    let k = !n_transitions in
    !tr_pack.(k) <- pack ~dst ~label;
    !tr_rate.(k) <- rate;
    incr n_transitions
  in
  let label_ids = Hashtbl.create 16 in
  let label_list = ref [] in
  let n_labels = ref 0 in
  let intern_label l =
    match Hashtbl.find_opt label_ids l with
    | Some id -> id
    | None ->
        if !n_labels >= max_interned_labels then
          invalid_arg "Net_statespace.build: label alphabet exceeds the packed budget";
        let id = !n_labels in
        Hashtbl.add label_ids l id;
        label_list := l :: !label_list;
        incr n_labels;
        id
  in
  ignore (intern (canonical (Marking.initial compiled)));
  let next = ref 0 in
  while !next < !n_markings do
    let src = !next in
    if obs_on then begin
      Obs.Metrics.set Pepa.Statespace.frontier_states (float_of_int (!n_markings - src));
      if src > 0 && src mod progress_every = 0 then
        Obs.Log.progress ~stage:"net_statespace.build" ~count:src
          ~detail:
            (Printf.sprintf "%d discovered, %d transitions" !n_markings !n_transitions)
    end;
    let marking = !markings.(src) in
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
        let dst = intern (canonical (Net_semantics.apply marking move.Net_semantics.updates)) in
        push src dst rate (intern_label move.Net_semantics.label))
      (Net_semantics.moves compiled marking);
    incr next
  done;
  let explored_markings = Array.sub !markings 0 !n_markings in
  let n = Array.length explored_markings in
  let count = !n_transitions in
  let tr_pack = Array.sub !tr_pack 0 count in
  let tr_rate = Array.sub !tr_rate 0 count in
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_start.(i + 1) <- row_start.(i) + (if i < !rc_cap then !row_count.(i) else 0)
  done;
  if obs_on then begin
    Obs.Metrics.add Pepa.Statespace.states_explored n;
    Obs.Metrics.add Pepa.Statespace.transitions_emitted count;
    Obs.Metrics.set Pepa.Statespace.packed_key_bytes (float_of_int key_size);
    Obs.Metrics.set Pepa.Statespace.packed_arena_bytes (float_of_int (n * key_size));
    Obs.Span.add_int span "markings" n;
    Obs.Span.add_int span "transitions" count;
    Obs.Span.add_int span "packed_key_bytes" key_size;
    if Array.length groups > 0 then begin
      Obs.Metrics.add Pepa.Statespace.canonical_hits !hits;
      Obs.Span.add_int span "symmetry_groups" (Array.length groups);
      Obs.Span.add_int span "canonical_hits" !hits
    end
  end;
  {
    compiled;
    markings = explored_markings;
    tr_pack;
    tr_rate;
    labels = Array.of_list (List.rev !label_list);
    row_start;
    chain = None;
    lump = None;
  })

let of_string ?max_markings ?symmetry src =
  build ?max_markings ?symmetry (Net_compile.of_string src)

let of_file ?max_markings ?symmetry path =
  build ?max_markings ?symmetry (Net_compile.of_file path)

let compiled t = t.compiled
let n_markings t = Array.length t.markings
let n_transitions t = Array.length t.tr_pack
let marking t i = t.markings.(i)
let marking_label t i = Marking.label t.compiled t.markings.(i)
let initial_index _ = 0

let iter_transitions t f =
  for s = 0 to n_markings t - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      f ~src:s ~label:t.labels.(tr_label_id t k) ~rate:t.tr_rate.(k) ~dst:(tr_dst t k)
    done
  done

let deadlocks t =
  let result = ref [] in
  for i = n_markings t - 1 downto 0 do
    if t.row_start.(i) = t.row_start.(i + 1) then result := i :: !result
  done;
  !result

let labels t = t.labels

let label_flux t pi =
  let flux = Array.make (Array.length t.labels) 0.0 in
  for s = 0 to n_markings t - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      let id = tr_label_id t k in
      flux.(id) <- flux.(id) +. (pi.(s) *. t.tr_rate.(k))
    done
  done;
  flux

let ctmc t =
  match t.chain with
  | Some c -> c
  | None ->
      let c =
        Markov.Ctmc.of_grouped ~n:(n_markings t) ~row_start:t.row_start ~dst:(tr_dst t)
          ~rate:(fun k -> t.tr_rate.(k))
      in
      t.chain <- Some c;
      c

let release_derived t =
  t.chain <- None;
  t.lump <- None

(* Net measures go all the way down to individual markings
   ([marking_probabilities], [Marking.label] in queries), so the only
   classes whose uniform disaggregation is exact for every reported
   measure are cell-permutation orbits: orbit members have equal
   probability (permuting interchangeable cell contents is a chain
   automorphism).  The respect key is therefore each marking's
   canonical form — on a space already built with [~symmetry:true] (or
   one with no interchangeable cells) the keys are distinct per marking
   and the lump pass degenerates to the identity partition. *)
let lump_respect t =
  let n = n_markings t in
  let groups = cell_groups t.compiled in
  let keys : (Marking.t, int) Hashtbl.t = Hashtbl.create (2 * n) in
  let next = ref 0 in
  Array.map
    (fun marking ->
      let canonical, _ = canonicalise groups marking in
      match Hashtbl.find_opt keys canonical with
      | Some id -> id
      | None ->
          let id = !next in
          Hashtbl.add keys canonical id;
          incr next;
          id)
    t.markings

(* The partition refinement still speaks flat coordinate columns;
   expanding the compressed stream here is transient and confined to
   aggregation requests. *)
let transition_columns t =
  let m = n_transitions t in
  let src = Array.make m 0 in
  let dst = Array.make m 0 in
  let label = Array.make m 0 in
  for s = 0 to n_markings t - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      src.(k) <- s;
      dst.(k) <- tr_dst t k;
      label.(k) <- tr_label_id t k
    done
  done;
  (src, dst, label)

let lump_partition t =
  match t.lump with
  | Some part -> part
  | None ->
      let src, dst, label = transition_columns t in
      let part =
        Markov.Lump.refine ~respect:(lump_respect t) ~n:(n_markings t) ~src ~dst
          ~rate:t.tr_rate ~label ()
      in
      t.lump <- Some part;
      part

let steady_state ?method_ ?options ?(lump = false) ?jobs t =
  if not lump then Markov.Steady.solve ?method_ ?options ?jobs (ctmc t)
  else begin
    let part = lump_partition t in
    if part.Markov.Lump.n_classes >= n_markings t then
      Markov.Steady.solve ?method_ ?options ?jobs (ctmc t)
    else begin
      let src, dst, _ = transition_columns t in
      let quotient = Markov.Lump.quotient_ctmc part ~src ~dst ~rate:t.tr_rate in
      Markov.Lump.disaggregate part (Markov.Steady.solve ?method_ ?options ?jobs quotient)
    end
  end

let transient t ~time =
  let n = n_markings t in
  let initial = Array.make n 0.0 in
  initial.(0) <- 1.0;
  Markov.Transient.probabilities (ctmc t) ~initial ~t:time

let action_names t =
  List.sort_uniq String.compare
    (List.filter_map
       (fun label ->
         match label with
         | Net_semantics.Local action -> Pepa.Action.name action
         | Net_semantics.Fire { action; _ } -> Some action)
       (Array.to_list t.labels))

let pp_summary fmt t =
  Format.fprintf fmt "%d markings, %d transitions, %d deadlock marking(s)" (n_markings t)
    (n_transitions t)
    (List.length (deadlocks t))
