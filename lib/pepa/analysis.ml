let deadlock_free space = Statespace.deadlocks space = []

(* Per-state flags: whether the state has an outgoing (enabled) and an
   incoming (entered) transition of the named action type. *)
let action_flags space name =
  let n = Statespace.n_states space in
  let enabled = Array.make n false and entered = Array.make n false in
  Statespace.iter_transitions space (fun ~src ~action ~rate:_ ~dst ->
      if Action.name action = Some name then begin
        enabled.(src) <- true;
        entered.(dst) <- true
      end);
  (enabled, entered)

let indices flags =
  let acc = ref [] in
  for i = Array.length flags - 1 downto 0 do
    if flags.(i) then acc := i :: !acc
  done;
  !acc

let reachable_action space name = Array.exists Fun.id (fst (action_flags space name))
let states_enabling space name = indices (fst (action_flags space name))

let passage_endpoints space name =
  let enabled, entered = action_flags space name in
  (indices enabled, indices entered)

let never_follows space ~first ~then_ =
  let _, after_first = action_flags space first in
  let enabled, _ = action_flags space then_ in
  not (Array.exists2 ( && ) after_first enabled)

let eventually_reaches space ~from name =
  let n = Statespace.n_states space in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(from) <- true;
  Queue.add from queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    Statespace.iter_transitions_from space (Queue.pop queue) (fun ~action ~rate:_ ~dst ->
        if Action.name action = Some name then found := true;
        if not seen.(dst) then begin
          seen.(dst) <- true;
          Queue.add dst queue
        end)
  done;
  !found

let strongly_connected space = Markov.Ctmc.is_irreducible (Statespace.ctmc space)

let pp_report fmt space =
  Format.fprintf fmt "@[<v>%a@,deadlock-free: %b@,strongly connected: %b@,actions: %s@]"
    Statespace.pp_summary space (deadlock_free space) (strongly_connected space)
    (String.concat ", " (Statespace.action_names space))
