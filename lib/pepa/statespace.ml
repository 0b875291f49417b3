type transition = { src : int; action : Action.t; rate : float; dst : int }

(* Transitions live in a compressed grouped stream with the action
   types interned into a small table: [row_start] delimits each source
   state's slice (the src column is its run-length encoding and is
   never stored), and each transition packs destination and action id
   into one word next to its rate — two words per transition where the
   seed layout spent four.  The CTMC assembles straight from the
   stream ([Ctmc.of_grouped]); the historical list-returning API
   survives as a thin compatibility layer that materialises (and
   caches) records on demand. *)
type t = {
  compiled : Compile.t;
  symmetry : Symmetry.t;  (* trivial unless built with ~symmetry:true *)
  codec : Statekey.t;
  n_states : int;
  packed : Bytes.t;  (* bit-packed state arena: state [i] at [i * Statekey.size codec] *)
  tr_pack : int array;  (* dst in the low bits, interned action id above *)
  tr_rate : float array;
  actions : Action.t array;  (* interned action table *)
  row_start : int array;  (* CSR over transitions grouped by src; length n_states + 1 *)
  mutable transition_cache : transition list option;
  mutable outgoing_cache : transition list array option;
  mutable chain : Markov.Ctmc.t option;
  mutable lump : Markov.Lump.t option;
  mutable marginals : (float array * (string * float) list array) option;
      (* the marginal table of the last distribution asked about *)
}

(* Destination in the low 48 bits, action id in the bits above:
   comfortably inside a 63-bit int for any explorable space (the
   default cap is 10^6 states) and any realistic action alphabet (the
   14-bit budget is guarded at intern time). *)
let pack_dst_bits = 48
let pack_dst_mask = (1 lsl pack_dst_bits) - 1
let max_interned_actions = 1 lsl (62 - pack_dst_bits)
let pack ~dst ~action = (action lsl pack_dst_bits) lor dst
let tr_dst t k = t.tr_pack.(k) land pack_dst_mask
let tr_action_id t k = t.tr_pack.(k) lsr pack_dst_bits

exception Too_many_states of int
exception Passive_transition of { state : string; action : string }

(* Shared exploration metrics (the PEPA-net builder adds to the same
   counters, so a pipeline run reports one total per name). *)
let states_explored = Obs.Metrics.counter "states_explored"
let transitions_emitted = Obs.Metrics.counter "transitions_emitted"
let intern_collisions = Obs.Metrics.counter "intern_collisions"
let canonical_hits = Obs.Metrics.counter "statespace.canonical_hits"

(* Discovered-but-unexpanded states, refreshed while the build runs so
   the background sampler can chart frontier occupancy over time (the
   PEPA-net builder shares the gauge). *)
let frontier_states = Obs.Metrics.gauge "statespace.frontier_states"

(* Compressed state storage (the PEPA-net builder sets the same gauges
   for its marking keys): bytes per bit-packed key and total arena
   footprint of the most recent build. *)
let packed_key_bytes = Obs.Metrics.gauge "statespace.packed_key_bytes"
let packed_arena_bytes = Obs.Metrics.gauge "statespace.packed_arena_bytes"

(* Every explored vector is bit-packed through the codec before it
   touches a table: the intern structures and the state store hold
   compact [Bytes.t] keys (a handful of bytes each) instead of boxed
   [int array]s (a header plus a word per leaf).  Hashing is FNV-1a
   over the key bytes, computed exactly once per interned key: the
   table stores each slot's hash, so probing and resizing compare
   integers, never rehash keys. *)
let codec_of compiled =
  Statekey.of_cardinalities
    (Array.map
       (fun comp -> Array.length compiled.Compile.components.(comp).Compile.states)
       compiled.Compile.leaf_component)

let build ?(max_states = 1_000_000) ?(symmetry = false) compiled =
  Obs.Span.with_ "statespace.build" (fun span ->
  let obs_on = Obs.Config.enabled () in
  let progress_every = Obs.Config.progress_interval () in
  let collisions = ref 0 in
  (* Replica symmetry: every explored vector is canonicalised before
     interning, so an orbit of permutation-equivalent states collapses
     to one representative (counter abstraction).  Sound because the
     permutations are automorphisms of the labelled chain — the reduced
     chain is its exact ordinary lumping. *)
  let sym = if symmetry then Symmetry.detect compiled else Symmetry.trivial in
  let use_sym = not (Symmetry.is_trivial sym) in
  let hits = ref 0 in
  let canonical vec =
    if use_sym && Symmetry.canonicalise sym vec then incr hits;
    vec
  in
  let codec = codec_of compiled in
  let key_size = Statekey.size codec in
  (* Contiguous packed state store; BFS order doubles as the index
     order, so the work queue is just a cursor into it.  One heap block
     holds every interned state. *)
  let arena = ref (Bytes.create (1024 * (max key_size 1))) in
  let n_states = ref 0 in
  (* Scratch key the candidate vector is packed into before probing. *)
  let scratch = Bytes.create key_size in
  (* Open-addressing intern table: [slots] holds state index + 1 (0 =
     empty), [hashes] the stored hash of that slot's key. *)
  let capacity = ref 4096 in
  let slots = ref (Array.make !capacity 0) in
  let hashes = ref (Array.make !capacity 0) in
  let rehash () =
    let old_slots = !slots and old_hashes = !hashes in
    capacity := !capacity * 2;
    slots := Array.make !capacity 0;
    hashes := Array.make !capacity 0;
    let mask = !capacity - 1 in
    Array.iteri
      (fun k s ->
        if s <> 0 then begin
          let h = old_hashes.(k) in
          let pos = ref (h land mask) in
          while !slots.(!pos) <> 0 do
            pos := (!pos + 1) land mask
          done;
          !slots.(!pos) <- s;
          !hashes.(!pos) <- h
        end)
      old_slots
  in
  let intern vec =
    Statekey.pack_into codec vec scratch 0;
    let h = Statekey.hash scratch in
    let mask = !capacity - 1 in
    let pos = ref (h land mask) in
    let result = ref (-1) in
    while !result < 0 do
      let s = !slots.(!pos) in
      if s = 0 then begin
        if !n_states >= max_states then raise (Too_many_states max_states);
        let i = !n_states in
        if (i + 1) * key_size > Bytes.length !arena then begin
          let bigger = Bytes.create (2 * Bytes.length !arena) in
          Bytes.blit !arena 0 bigger 0 (i * key_size);
          arena := bigger
        end;
        Statekey.blit_key codec scratch !arena i;
        incr n_states;
        !slots.(!pos) <- i + 1;
        !hashes.(!pos) <- h;
        if 4 * !n_states > 3 * !capacity then rehash ();
        result := i
      end
      else if !hashes.(!pos) = h && Statekey.matches codec !arena (s - 1) scratch then
        result := s - 1
      else begin
        incr collisions;
        pos := (!pos + 1) land mask
      end
    done;
    !result
  in
  (* Compressed transition buffers, doubled on demand: one packed
     dst/action word and one rate per transition.  Sources arrive in
     nondecreasing order (BFS pops states by index), so the src column
     reduces to per-source counts recorded as the stream is emitted. *)
  let tr_cap = ref 4096 in
  let tr_pack = ref (Array.make !tr_cap 0) in
  let tr_rate = ref (Array.make !tr_cap 0.0) in
  let n_transitions = ref 0 in
  let rc_cap = ref 4096 in
  let row_count = ref (Array.make !rc_cap 0) in
  let push src dst rate action =
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
    !tr_pack.(k) <- pack ~dst ~action;
    !tr_rate.(k) <- rate;
    incr n_transitions
  in
  (* Action interning. *)
  let action_ids = Hashtbl.create 16 in
  let action_list = ref [] in
  let n_actions = ref 0 in
  let intern_action a =
    match Hashtbl.find_opt action_ids a with
    | Some id -> id
    | None ->
        if !n_actions >= max_interned_actions then
          invalid_arg "Statespace.build: action alphabet exceeds the packed budget";
        let id = !n_actions in
        Hashtbl.add action_ids a id;
        action_list := a :: !action_list;
        incr n_actions;
        id
  in
  ignore (intern (canonical (Compile.initial_state compiled)));
  let next = ref 0 in
  while !next < !n_states do
    let src = !next in
    if obs_on then begin
      Obs.Metrics.set frontier_states (float_of_int (!n_states - src));
      if src > 0 && src mod progress_every = 0 then
        Obs.Log.progress ~stage:"statespace.build" ~count:src
          ~detail:
            (Printf.sprintf "%d discovered, %d transitions" !n_states !n_transitions)
    end;
    let vec = Statekey.unpack_at codec !arena src in
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
        let dst = intern (canonical (Semantics.apply vec move.Semantics.deltas)) in
        push src dst rate (intern_action move.Semantics.action))
      (Semantics.moves compiled vec);
    incr next
  done;
  let n = !n_states in
  let packed_states = Bytes.sub !arena 0 (n * key_size) in
  let count = !n_transitions in
  let tr_pack = Array.sub !tr_pack 0 count in
  let tr_rate = Array.sub !tr_rate 0 count in
  (* Sources were emitted in increasing order, so the per-source counts
     scan straight into the row boundaries (states past the counter's
     high-water mark emitted nothing). *)
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_start.(i + 1) <- row_start.(i) + (if i < !rc_cap then !row_count.(i) else 0)
  done;
  if obs_on then begin
    Obs.Metrics.add states_explored n;
    Obs.Metrics.add transitions_emitted count;
    Obs.Metrics.add intern_collisions !collisions;
    Obs.Metrics.set packed_key_bytes (float_of_int key_size);
    Obs.Metrics.set packed_arena_bytes (float_of_int (Bytes.length packed_states));
    Obs.Span.add_int span "states" n;
    Obs.Span.add_int span "transitions" count;
    Obs.Span.add_int span "intern_collisions" !collisions;
    Obs.Span.add_int span "packed_key_bytes" key_size;
    if use_sym then begin
      Obs.Metrics.add canonical_hits !hits;
      Obs.Span.add_int span "symmetry_groups" (Symmetry.n_groups sym);
      Obs.Span.add_int span "canonical_hits" !hits
    end
  end;
  {
    compiled;
    symmetry = sym;
    codec;
    n_states = n;
    packed = packed_states;
    tr_pack;
    tr_rate;
    actions = Array.of_list (List.rev !action_list);
    row_start;
    transition_cache = None;
    outgoing_cache = None;
    chain = None;
    lump = None;
    marginals = None;
  })

let of_model ?max_states ?symmetry model =
  build ?max_states ?symmetry (Compile.of_model model)

let of_string ?max_states ?symmetry src =
  build ?max_states ?symmetry (Compile.of_string src)

let compiled t = t.compiled
let symmetry t = t.symmetry
let n_states t = t.n_states
let n_transitions t = Array.length t.tr_pack

let state t i =
  if i < 0 || i >= t.n_states then invalid_arg "Statespace.state: index out of range";
  Statekey.unpack_at t.codec t.packed i

let state_label t i = Compile.state_label t.compiled (state t i)
let initial_index _ = 0

(* The source of transition [k] is implicit in [row_start]; record
   consumers all iterate by row, so it is threaded in rather than
   searched for. *)
let transition_record t ~src k =
  {
    src;
    action = t.actions.(tr_action_id t k);
    rate = t.tr_rate.(k);
    dst = tr_dst t k;
  }

let iter_transitions t f =
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      f ~src:s ~action:t.actions.(tr_action_id t k) ~rate:t.tr_rate.(k) ~dst:(tr_dst t k)
    done
  done

let fold_transitions t f init =
  let acc = ref init in
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      acc :=
        f !acc ~src:s ~action:t.actions.(tr_action_id t k) ~rate:t.tr_rate.(k)
          ~dst:(tr_dst t k)
    done
  done;
  !acc

let transitions t =
  match t.transition_cache with
  | Some l -> l
  | None ->
      let acc = ref [] in
      for s = n_states t - 1 downto 0 do
        for k = t.row_start.(s + 1) - 1 downto t.row_start.(s) do
          acc := transition_record t ~src:s k :: !acc
        done
      done;
      t.transition_cache <- Some !acc;
      !acc

let transitions_from t i =
  match t.outgoing_cache with
  | Some rows -> rows.(i)
  | None ->
      let rows =
        Array.init (n_states t) (fun s ->
            List.init
              (t.row_start.(s + 1) - t.row_start.(s))
              (fun k -> transition_record t ~src:s (t.row_start.(s) + k)))
      in
      t.outgoing_cache <- Some rows;
      rows.(i)

let deadlocks t =
  let result = ref [] in
  for i = n_states t - 1 downto 0 do
    if t.row_start.(i) = t.row_start.(i + 1) then result := i :: !result
  done;
  !result

let action_names t =
  List.sort_uniq String.compare
    (List.filter_map Action.name (Array.to_list t.actions))

let ctmc t =
  match t.chain with
  | Some c -> c
  | None ->
      (* The CSR assembles straight from the compressed stream: the
         grouped layout is exactly what [Ctmc.of_grouped] consumes, so
         no src/dst/rate coordinate arrays ever exist. *)
      let c =
        Markov.Ctmc.of_grouped ~n:(n_states t) ~row_start:t.row_start ~dst:(tr_dst t)
          ~rate:(fun k -> t.tr_rate.(k))
      in
      t.chain <- Some c;
      c

let release_derived t =
  t.transition_cache <- None;
  t.outgoing_cache <- None;
  t.chain <- None;
  t.lump <- None;
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
let lump_respect t =
  let n = n_states t in
  let keys : (int array, int) Hashtbl.t = Hashtbl.create (2 * n) in
  let next = ref 0 in
  let intern_key v =
    match Hashtbl.find_opt keys v with
    | Some id -> id
    | None ->
        let id = !next in
        Hashtbl.add keys v id;
        incr next;
        id
  in
  let sym =
    if Symmetry.is_trivial t.symmetry then Symmetry.detect t.compiled else t.symmetry
  in
  if not (Symmetry.is_trivial sym) then
    Array.init n (fun i ->
        let c = Statekey.unpack_at t.codec t.packed i in
        ignore (Symmetry.canonicalise sym c);
        intern_key c)
  else begin
    let codes = Hashtbl.create 64 in
    let n_codes = ref 0 in
    let code s =
      match Hashtbl.find_opt codes s with
      | Some c -> c
      | None ->
          let c = !n_codes in
          Hashtbl.add codes s c;
          incr n_codes;
          c
    in
    Array.init n (fun i ->
        let vec = Statekey.unpack_at t.codec t.packed i in
        intern_key
          (Array.mapi
             (fun leaf local -> code (Compile.local_label t.compiled ~leaf ~local))
             vec))
  end

(* The partition refinement still speaks flat coordinate columns;
   expanding the compressed stream here is transient and confined to
   aggregation requests, which target far smaller spaces than the raw
   solves the compression exists for. *)
let transition_columns t =
  let m = n_transitions t in
  let src = Array.make m 0 in
  let dst = Array.make m 0 in
  let label = Array.make m 0 in
  for s = 0 to n_states t - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      src.(k) <- s;
      dst.(k) <- tr_dst t k;
      label.(k) <- tr_action_id t k
    done
  done;
  (src, dst, label)

let lump_partition t =
  match t.lump with
  | Some part -> part
  | None ->
      (* Labels are the interned action ids, so the refinement never
         merges states with different per-action exit signatures and
         every throughput measure is exact on the uniformly
         disaggregated solution; the respect key keeps the per-state
         measures exact as well. *)
      let src, dst, label = transition_columns t in
      let part =
        Markov.Lump.refine ~respect:(lump_respect t) ~n:(n_states t) ~src ~dst
          ~rate:t.tr_rate ~label ()
      in
      t.lump <- Some part;
      part

let steady_state ?method_ ?options ?(lump = false) ?jobs t =
  if not lump then Markov.Steady.solve ?method_ ?options ?jobs (ctmc t)
  else begin
    let part = lump_partition t in
    if part.Markov.Lump.n_classes >= n_states t then
      Markov.Steady.solve ?method_ ?options ?jobs (ctmc t)
    else begin
      let src, dst, _ = transition_columns t in
      let quotient = Markov.Lump.quotient_ctmc part ~src ~dst ~rate:t.tr_rate in
      Markov.Lump.disaggregate part (Markov.Steady.solve ?method_ ?options ?jobs quotient)
    end
  end

let transient t ~time =
  let n = n_states t in
  let initial = Array.make n 0.0 in
  initial.(0) <- 1.0;
  Markov.Transient.probabilities (ctmc t) ~initial ~t:time

(* Per-action-id steady-state flux in one pass over the columns. *)
let action_flux t pi =
  let flux = Array.make (Array.length t.actions) 0.0 in
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      let id = tr_action_id t k in
      flux.(id) <- flux.(id) +. (pi.(s) *. t.tr_rate.(k))
    done
  done;
  flux

let throughput t pi name =
  let flux = ref 0.0 in
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      match t.actions.(tr_action_id t k) with
      | Action.Act n when n = name -> flux := !flux +. (pi.(s) *. t.tr_rate.(k))
      | Action.Act _ | Action.Tau -> ()
    done
  done;
  !flux

let throughputs t pi =
  (* One pass over the columns; each named action type has exactly one
     interned id, so no regrouping is needed afterwards. *)
  let flux = action_flux t pi in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.filter_map
       (fun id ->
         match Action.name t.actions.(id) with
         | Some name -> Some (name, flux.(id))
         | None -> None)
       (List.init (Array.length t.actions) Fun.id))

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
  let key_size = Statekey.size t.codec in
  let vec = Array.make (Statekey.n_fields t.codec) 0 in
  for i = 0 to t.n_states - 1 do
    Statekey.unpack_into t.codec t.packed (i * key_size) vec;
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
