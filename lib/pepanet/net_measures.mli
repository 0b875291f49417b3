(** Performance measures over a solved PEPA net: the quantities
    Choreographer reflects back into UML models. *)

val passage_endpoints : Net_statespace.t -> string -> int list * int list
(** [(sources, targets)] of a passage around the named action type
    (local occurrences and firings alike): the markings with an
    outgoing and the markings with an incoming transition of that type,
    each sorted. *)

val throughput : Net_statespace.t -> float array -> string -> float
(** Steady-state throughput of a named action type, counting both local
    occurrences and net-level firings of that type. *)

val throughputs : Net_statespace.t -> float array -> (string * float) list
(** Throughput of every reachable action type, sorted by name. *)

val firing_throughput : Net_statespace.t -> float array -> string -> float
(** Throughput of one named net transition. *)

val token_location_probabilities :
  Net_statespace.t -> float array -> token:int -> (string * float) list
(** Distribution of a token over the places of the net:
    [(place name, probability)] for every place. *)

val expected_tokens_at : Net_statespace.t -> float array -> place:string -> float
(** Expected number of tokens present at the named place. *)

val marking_probabilities : Net_statespace.t -> float array -> (string * float) list
(** Per-marking steady-state probabilities with printable labels, in
    decreasing order of probability. *)

val token_state_probability :
  Net_statespace.t -> float array -> token:int -> state_label:string -> float
(** Probability that the given token currently sits in a derivative
    state carrying the given label (anywhere in the net). *)
