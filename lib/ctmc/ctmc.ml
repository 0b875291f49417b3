type t = {
  n : int;
  rates : Sparse.t;  (* off-diagonal rate matrix, row = source *)
  exit : float array;
  mutable transposed : Sparse.t option;
}

let validate_entry ~n ~context i j r =
  if i < 0 || i >= n || j < 0 || j >= n then
    invalid_arg (Printf.sprintf "%s: state (%d, %d) out of range" context i j);
  if r <= 0.0 || Float.is_nan r then
    invalid_arg (Printf.sprintf "%s: non-positive rate %g on %d -> %d" context r i j)

let of_arrays ~n ~src ~dst ~rate =
  Obs.Span.with_ "ctmc.assemble" (fun span ->
  Obs.Span.add_int span "states" n;
  Obs.Span.add_int span "transitions" (Array.length src);
  let count = Array.length src in
  if Array.length dst <> count || Array.length rate <> count then
    invalid_arg "Ctmc.of_arrays: column arrays of different lengths";
  let off_diagonal = ref 0 in
  for k = 0 to count - 1 do
    validate_entry ~n ~context:"Ctmc.of_arrays" src.(k) dst.(k) rate.(k);
    if src.(k) <> dst.(k) then incr off_diagonal
  done;
  (* Self-loops have no effect on a CTMC: drop them before assembly. *)
  let rows, cols, values =
    if !off_diagonal = count then (src, dst, rate)
    else begin
      let rows = Array.make !off_diagonal 0 in
      let cols = Array.make !off_diagonal 0 in
      let values = Array.make !off_diagonal 0.0 in
      let w = ref 0 in
      for k = 0 to count - 1 do
        if src.(k) <> dst.(k) then begin
          rows.(!w) <- src.(k);
          cols.(!w) <- dst.(k);
          values.(!w) <- rate.(k);
          incr w
        end
      done;
      (rows, cols, values)
    end
  in
  let rates = Sparse.of_arrays ~n_rows:n ~n_cols:n ~rows ~cols ~values in
  let exit = Sparse.row_sums rates in
  { n; rates; exit; transposed = None })

let of_grouped ~n ~row_start ~dst ~rate =
  Obs.Span.with_ "ctmc.assemble" (fun span ->
  if Array.length row_start <> n + 1 then
    invalid_arg "Ctmc.of_grouped: row_start has wrong length";
  Obs.Span.add_int span "states" n;
  Obs.Span.add_int span "transitions" row_start.(n);
  for i = 0 to n - 1 do
    for k = row_start.(i) to row_start.(i + 1) - 1 do
      validate_entry ~n ~context:"Ctmc.of_grouped" i (dst k) (rate k)
    done
  done;
  (* Self-loops are discarded inside the assembly pass itself
     ([drop_diagonal]): nothing is ever copied into a filtered triplet
     set the way [of_arrays] has to. *)
  let rates =
    Sparse.of_grouped ~drop_diagonal:true ~n_rows:n ~n_cols:n ~row_start ~col:dst
      ~value:rate
  in
  let exit = Sparse.row_sums rates in
  { n; rates; exit; transposed = None })

let of_transitions ~n transitions =
  List.iter
    (fun (i, j, r) -> validate_entry ~n ~context:"Ctmc.of_transitions" i j r)
    transitions;
  let count = List.length transitions in
  let src = Array.make count 0 in
  let dst = Array.make count 0 in
  let rate = Array.make count 0.0 in
  List.iteri
    (fun k (i, j, r) ->
      src.(k) <- i;
      dst.(k) <- j;
      rate.(k) <- r)
    transitions;
  of_arrays ~n ~src ~dst ~rate

let n_states c = c.n

(* The generator is the rate matrix plus the negated exit rates on the
   diagonal (absorbing states contribute nothing: [-.0.0 = 0.0] and
   zero diagonals are not stored).  Both the plain and the transposed
   form stream straight out of the rates CSR — no triplet arrays, no
   re-sort, and for the transposed form no intermediate untransposed
   generator. *)
let neg_exit c = Array.map (fun e -> -.e) c.exit

let generator c = Sparse.add_diagonal c.rates (neg_exit c)

let generator_transposed ?jobs:_ c =
  match c.transposed with
  | Some m -> m
  | None ->
      let m =
        Obs.Span.with_ "ctmc.transpose" (fun span ->
            Obs.Span.add_int span "states" c.n;
            Sparse.transpose_add_diagonal c.rates (neg_exit c))
      in
      c.transposed <- Some m;
      m

let exit_rate c i = c.exit.(i)
let exit_rates c = Array.copy c.exit

let max_exit_rate c = Array.fold_left max 0.0 c.exit

let rate c i j = Sparse.get c.rates i j

let successors c i = List.rev (Sparse.fold_row c.rates i (fun acc j v -> (j, v) :: acc) [])

let is_absorbing c i = c.exit.(i) = 0.0

(* A finite CTMC is irreducible iff state 0 reaches every state and every
   state reaches state 0 (single strongly-connected component). *)
let is_irreducible c =
  if c.n = 0 then true
  else begin
    let reaches matrix =
      let seen = Array.make c.n false in
      let queue = Queue.create () in
      seen.(0) <- true;
      Queue.add 0 queue;
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        Sparse.iter_row matrix i (fun j _ ->
            if not seen.(j) then begin
              seen.(j) <- true;
              Queue.add j queue
            end)
      done;
      Array.for_all Fun.id seen
    in
    reaches c.rates && reaches (Sparse.transpose c.rates)
  end

let embedded_probabilities c i =
  let total = c.exit.(i) in
  if total = 0.0 then []
  else List.map (fun (j, r) -> (j, r /. total)) (successors c i)

let pp_stats fmt c =
  Format.fprintf fmt "%d states, %d transitions, max exit rate %g" c.n (Sparse.nnz c.rates)
    (max_exit_rate c)
