(* Transitions live in a compressed grouped stream with the labels
   interned into a small table: [row_start] delimits each source
   state's slice (the src column is its run-length encoding and is
   never stored), and each transition packs destination and label id
   into one word next to its rate — two words per transition.  The
   CTMC assembles straight from the stream ([Ctmc.of_grouped]), and
   every other consumer reads it through the allocation-free
   iterators. *)
type 'l t = {
  codec : Statekey.t;
  n_states : int;
  packed : Bytes.t;  (* bit-packed state arena: state [i] at [i * Statekey.size codec] *)
  tr_pack : int array;  (* dst in the low bits, interned label id above *)
  tr_rate : float array;
  labels : 'l array;  (* interned label table *)
  row_start : int array;  (* CSR over transitions grouped by src; length n_states + 1 *)
  mutable chain : Markov.Ctmc.t option;
  mutable lump : Markov.Lump.t option;
}

type symmetry = { groups : int; canonicalise : int array -> bool }

(* Destination in the low 48 bits, label id in the bits above:
   comfortably inside a 63-bit int for any explorable space (the
   builders' default cap is 10^6 states) and any realistic label
   alphabet (the 14-bit budget is guarded at intern time). *)
let pack_dst_bits = 48
let pack_dst_mask = (1 lsl pack_dst_bits) - 1
let max_interned_labels = 1 lsl (62 - pack_dst_bits)
let pack ~dst ~label = (label lsl pack_dst_bits) lor dst
let tr_dst t k = t.tr_pack.(k) land pack_dst_mask
let tr_label_id t k = t.tr_pack.(k) lsr pack_dst_bits

let states_explored = Obs.Metrics.counter "states_explored"
let transitions_emitted = Obs.Metrics.counter "transitions_emitted"
let intern_collisions = Obs.Metrics.counter "intern_collisions"
let canonical_hits = Obs.Metrics.counter "statespace.canonical_hits"
let frontier_states = Obs.Metrics.gauge "statespace.frontier_states"
let packed_key_bytes = Obs.Metrics.gauge "statespace.packed_key_bytes"
let packed_arena_bytes = Obs.Metrics.gauge "statespace.packed_arena_bytes"

(* Every explored vector is bit-packed through the codec before it
   touches a table: the intern structures and the state store hold
   compact [Bytes.t] keys (a handful of bytes each) instead of boxed
   [int array]s (a header plus a word per field).  Hashing is FNV-1a
   over the key bytes, computed exactly once per interned key: the
   table stores each slot's hash, so probing and resizing compare
   integers, never rehash keys. *)
let explore ~stage ~count_attr ~max_states ~overflow ?symmetry codec initial successors =
  Obs.Span.with_ stage (fun span ->
  let obs_on = Obs.Config.enabled () in
  let progress_every = Obs.Config.progress_interval () in
  let collisions = ref 0 in
  (* Under symmetry every vector is canonicalised before interning, so
     an orbit of equivalent states collapses to one representative. *)
  let hits = ref 0 in
  let canonical vec =
    match symmetry with
    | Some { canonicalise; _ } -> if canonicalise vec then incr hits
    | None -> ()
  in
  let key_size = Statekey.size codec in
  (* Contiguous packed state store; BFS order doubles as the index
     order, so the work queue is just a cursor into it.  One heap block
     holds every interned state. *)
  let arena = ref (Bytes.create (1024 * max key_size 1)) in
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
    canonical vec;
    Statekey.pack_into codec vec scratch 0;
    let h = Statekey.hash scratch in
    let mask = !capacity - 1 in
    let pos = ref (h land mask) in
    let result = ref (-1) in
    while !result < 0 do
      let s = !slots.(!pos) in
      if s = 0 then begin
        if !n_states >= max_states then raise (overflow max_states);
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
     dst/label word and one rate per transition.  Sources are expanded
     in index order, so the src column reduces to the stream offset at
     which each source starts. *)
  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let tr_pack = ref (Array.make 4096 0) in
  let tr_rate = ref (Array.make 4096 0.0) in
  let n_transitions = ref 0 in
  let starts = ref (Array.make 4096 0) in
  let push dst rate label =
    let k = !n_transitions in
    if k = Array.length !tr_pack then begin
      tr_pack := grow !tr_pack 0;
      tr_rate := grow !tr_rate 0.0
    end;
    !tr_pack.(k) <- pack ~dst ~label;
    !tr_rate.(k) <- rate;
    incr n_transitions
  in
  let label_ids = Hashtbl.create 16 in
  let label_list = ref [] in
  let intern_label l =
    match Hashtbl.find_opt label_ids l with
    | Some id -> id
    | None ->
        let id = Hashtbl.length label_ids in
        if id >= max_interned_labels then
          invalid_arg "Lts.explore: label alphabet exceeds the packed budget";
        Hashtbl.add label_ids l id;
        label_list := l :: !label_list;
        id
  in
  ignore (intern initial);
  let next = ref 0 in
  let emit label rate vec =
    let dst = intern vec in
    push dst rate (intern_label label)
  in
  while !next < !n_states do
    let src = !next in
    if src = Array.length !starts then starts := grow !starts 0;
    !starts.(src) <- !n_transitions;
    if obs_on then begin
      Obs.Metrics.set frontier_states (float_of_int (!n_states - src));
      if src > 0 && src mod progress_every = 0 then
        Obs.Log.progress ~stage ~count:src
          ~detail:
            (Printf.sprintf "%d discovered, %d transitions" !n_states !n_transitions)
    end;
    successors (Statekey.unpack_at codec !arena src) emit;
    incr next
  done;
  let n = !n_states in
  let packed = Bytes.sub !arena 0 (n * key_size) in
  let count = !n_transitions in
  let row_start = Array.make (n + 1) count in
  Array.blit !starts 0 row_start 0 n;
  if obs_on then begin
    Obs.Metrics.add states_explored n;
    Obs.Metrics.add transitions_emitted count;
    Obs.Metrics.add intern_collisions !collisions;
    Obs.Metrics.set packed_key_bytes (float_of_int key_size);
    Obs.Metrics.set packed_arena_bytes (float_of_int (Bytes.length packed));
    Obs.Span.add_int span count_attr n;
    Obs.Span.add_int span "transitions" count;
    Obs.Span.add_int span "intern_collisions" !collisions;
    Obs.Span.add_int span "packed_key_bytes" key_size;
    match symmetry with
    | Some { groups; _ } ->
        Obs.Metrics.add canonical_hits !hits;
        Obs.Span.add_int span "symmetry_groups" groups;
        Obs.Span.add_int span "canonical_hits" !hits
    | None -> ()
  end;
  {
    codec;
    n_states = n;
    packed;
    tr_pack = Array.sub !tr_pack 0 count;
    tr_rate = Array.sub !tr_rate 0 count;
    labels = Array.of_list (List.rev !label_list);
    row_start;
    chain = None;
    lump = None;
  })

let n_states t = t.n_states
let n_transitions t = Array.length t.tr_pack
let labels t = t.labels

let state t i =
  if i < 0 || i >= t.n_states then invalid_arg "Lts.state: index out of range";
  Statekey.unpack_at t.codec t.packed i

let state_into t i vec = Statekey.unpack_into t.codec t.packed (i * Statekey.size t.codec) vec

let iter_transitions_from t s f =
  for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
    f ~label:t.labels.(tr_label_id t k) ~rate:t.tr_rate.(k) ~dst:(tr_dst t k)
  done

let iter_transitions t f =
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      f ~src:s ~label:t.labels.(tr_label_id t k) ~rate:t.tr_rate.(k) ~dst:(tr_dst t k)
    done
  done

let deadlocks t =
  let result = ref [] in
  for i = t.n_states - 1 downto 0 do
    if t.row_start.(i) = t.row_start.(i + 1) then result := i :: !result
  done;
  !result

let label_flux t pi =
  let flux = Array.make (Array.length t.labels) 0.0 in
  for s = 0 to t.n_states - 1 do
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
      (* The grouped layout is exactly what [Ctmc.of_grouped] consumes,
         so no src/dst/rate coordinate arrays ever exist. *)
      let c =
        Markov.Ctmc.of_grouped ~n:t.n_states ~row_start:t.row_start ~dst:(tr_dst t)
          ~rate:(fun k -> t.tr_rate.(k))
      in
      t.chain <- Some c;
      c

let release_derived t =
  t.chain <- None;
  t.lump <- None

let respect_by t key =
  let ids = Hashtbl.create (2 * t.n_states) in
  Array.init t.n_states (fun i ->
      let k = key (state t i) in
      match Hashtbl.find_opt ids k with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids k id;
          id)

(* The partition refinement and the quotient still speak flat
   coordinate columns; the expansion is transient and confined to
   aggregation requests, which target far smaller spaces than the raw
   solves the compression exists for. *)
let transition_columns t =
  let m = n_transitions t in
  let src = Array.make m 0 in
  let dst = Array.make m 0 in
  let label = Array.make m 0 in
  for s = 0 to t.n_states - 1 do
    for k = t.row_start.(s) to t.row_start.(s + 1) - 1 do
      src.(k) <- s;
      dst.(k) <- tr_dst t k;
      label.(k) <- tr_label_id t k
    done
  done;
  (src, dst, label)

(* Labels are the interned ids, so the refinement never merges states
   with different per-label exit signatures and every flux measure is
   exact on the uniformly disaggregated solution; the respect key keeps
   the builder's per-state measures exact as well. *)
let partition t ~respect columns =
  match t.lump with
  | Some part -> part
  | None ->
      let src, dst, label = Lazy.force columns in
      let part =
        Markov.Lump.refine ~respect:(respect ()) ~n:t.n_states ~src ~dst ~rate:t.tr_rate
          ~label ()
      in
      t.lump <- Some part;
      part

let lump_partition t ~respect = partition t ~respect (lazy (transition_columns t))

let steady_state ?method_ ?options ?initial ?(lump = false) ?jobs ~respect t =
  let solve chain = Markov.Steady.solve ?method_ ?options ?jobs chain in
  if not lump then Markov.Steady.solve ?method_ ?options ?initial ?jobs (ctmc t)
  else begin
    let columns = lazy (transition_columns t) in
    let part = partition t ~respect columns in
    if part.Markov.Lump.n_classes >= t.n_states then solve (ctmc t)
    else begin
      let src, dst, _ = Lazy.force columns in
      Markov.Lump.disaggregate part
        (solve (Markov.Lump.quotient_ctmc part ~src ~dst ~rate:t.tr_rate))
    end
  end

let transient t ~time =
  let initial = Array.make t.n_states 0.0 in
  initial.(0) <- 1.0;
  Markov.Transient.probabilities (ctmc t) ~initial ~t:time
