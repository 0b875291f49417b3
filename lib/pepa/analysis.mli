(** Behavioural analysis over the derivation graph: the qualitative
    checks the paper mentions alongside performance analysis (freedom
    from deadlock, protocol properties such as "it is not possible to
    write to a closed file"). *)

val deadlock_free : Statespace.t -> bool

val reachable_action : Statespace.t -> string -> bool
(** Whether the named action occurs on any reachable transition. *)

val states_enabling : Statespace.t -> string -> int list
(** Indices of states in which the named action is enabled, sorted. *)

val passage_endpoints : Statespace.t -> string -> int list * int list
(** [(sources, targets)] of a passage around the named action: the
    states in which it is enabled and the states its transitions
    enter, each sorted. *)

val never_follows : Statespace.t -> first:string -> then_:string -> bool
(** [never_follows space ~first ~then_] holds when no reachable state
    has an incoming [first]-transition and an outgoing [then_]-transition,
    i.e. [then_] is never enabled immediately after [first].  This is the
    shape of protocol assertions like "read and write operations cannot
    be interleaved: the file must be closed and re-opened first". *)

val eventually_reaches : Statespace.t -> from:int -> string -> bool
(** Whether some sequence of transitions from state [from] contains the
    named action. *)

val strongly_connected : Statespace.t -> bool
(** Whether every state is reachable from every other state — the
    precondition for a unique steady-state distribution. *)

val pp_report : Format.formatter -> Statespace.t -> unit
(** A short qualitative report: state count, deadlocks, action
    alphabet. *)
