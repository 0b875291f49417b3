(** The daemon's request/response vocabulary and its JSON codec.

    One frame (see {!Frame}) carries one JSON document.  A connection
    is a synchronous sequence of request/response pairs; the analysis
    verbs ship the model {e source} (not a path), so the daemon never
    reads the client's filesystem and the content hash it caches under
    is computed over exactly what was analysed. *)

type model_kind = Pepa | Net

type options = {
  method_ : Markov.Steady.method_ option;  (** [None] = auto *)
  aggregate : Markov.Lump.mode;
  fluid : Fluid.Rk45.tolerances option;  (** [Some _] switches the solve verbs
                                             to the ODE approximation *)
  jobs : int;  (** as the CLI [--jobs]: 1 sequential, 0 auto-detect *)
  max_states : int option;
      (** The decoder rejects a [jobs] or [max_states] that is not an
          integer between 0 and [max_int] with {!Protocol_error}. *)
  restart : [ `Cycle | `Absorb ];  (** pipeline/reflect extraction policy *)
}

val default_options : options
(** The one-shot CLI defaults: auto method, no aggregation, exact
    solve, [jobs = 1], unlimited states, cycling restart. *)

type axis = {
  target : [ `Rate of string | `Replicas of string ];
      (** which knob the axis turns: a rate constant redefined to each
          value, or a component array's replica count *)
  values : float list;  (** replica counts are rounded to integers *)
}

type backend = Exact | Lump | Fluid_ode
(** How {!Sweep} solves each grid point: the full chain, the lumped
    quotient chain, or the fluid ODE approximation. *)

type request =
  | Solve of { kind : model_kind; name : string; source : string; options : options }
  | Pipeline of {
      name : string;
      document : string;  (** XMI or plain-text notation, sniffed as the CLI does *)
      rates : string option;  (** rates-file source, not a path *)
      options : options;
    }
  | Query of {
      kind : model_kind;
      name : string;
      source : string;
      query : string;
      options : options;
    }
  | Reflect of { name : string; document : string; rates : string option; options : options }
  | Sweep of {
      kind : model_kind;
      name : string;
      source : string;
      options : options;
      axes : axis list;  (** the grid is the cartesian product, row-major *)
      backend : backend;
      warm_start : bool;  (** reuse each point's solution to start the next *)
    }
  | Stats
  | Shutdown

type response =
  | Ok_response of {
      output : string;  (** the bytes the one-shot CLI writes to stdout *)
      diagnostics : string;  (** stderr diagnostics (solver/fluid stats lines) *)
      data : Obs.Json.t;  (** structured payload (sweep grid, stats, reflected
                              XMI); [Null] when the verb has none *)
    }
  | Error_response of {
      code : int;  (** the one-shot CLI exit code: 1 model error, 2 analysis *)
      message : string;  (** the bytes the CLI writes to stderr, hints included *)
    }

exception Protocol_error of string
(** Raised by the decoders on JSON that is well-formed but not a valid
    request/response (unknown verb, missing field, bad option value). *)

val method_to_string : Markov.Steady.method_ option -> string
val method_of_string : string -> Markov.Steady.method_ option
(** ["auto"], ["direct"], ["jacobi"], ["gauss-seidel"]/["gs"],
    ["sor"]/["sor:OMEGA"], ["power"], ["bicgstab"] — the CLI [--method]
    grammar.  Raises {!Protocol_error} on anything else, with the
    message the CLI prints. *)

val fluid_to_string : Fluid.Rk45.tolerances option -> string
(** ["off"] or ["RTOL,ATOL"] — the normalised form used in cache keys
    and ledger records. *)

val fluid_of_string : string -> Fluid.Rk45.tolerances option
(** ["off"], ["RTOL"] or ["RTOL,ATOL"] with both positive — the CLI
    [--fluid] grammar, ["off"] being the exact solve.  Raises
    {!Protocol_error} on anything else. *)

val kind_to_string : model_kind -> string
val backend_to_string : backend -> string

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> request
val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> response
