type model_kind = Pepa | Net

type options = {
  method_ : Markov.Steady.method_ option;
  aggregate : Markov.Lump.mode;
  fluid : Fluid.Rk45.tolerances option;
  jobs : int;
  max_states : int option;
  restart : [ `Cycle | `Absorb ];
}

let default_options =
  {
    method_ = None;
    aggregate = Markov.Lump.No_agg;
    fluid = None;
    jobs = 1;
    max_states = None;
    restart = `Cycle;
  }

type axis = { target : [ `Rate of string | `Replicas of string ]; values : float list }
type backend = Exact | Lump | Fluid_ode

type request =
  | Solve of { kind : model_kind; name : string; source : string; options : options }
  | Pipeline of { name : string; document : string; rates : string option; options : options }
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
      axes : axis list;
      backend : backend;
      warm_start : bool;
    }
  | Stats
  | Shutdown

type response =
  | Ok_response of { output : string; diagnostics : string; data : Obs.Json.t }
  | Error_response of { code : int; message : string }

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Protocol_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* JSON field access                                                   *)
(* ------------------------------------------------------------------ *)

open Obs.Json

let str_field name json =
  match member name json with
  | Some (Str s) -> s
  | Some _ -> fail "field %s is not a string" name
  | None -> fail "missing field %s" name

let opt_str_field name json =
  match member name json with
  | Some (Str s) -> Some s
  | Some Null | None -> None
  | Some _ -> fail "field %s is not a string" name

let num_field name json =
  match member name json with
  | Some (Num v) -> v
  | Some _ -> fail "field %s is not a number" name
  | None -> fail "missing field %s" name

(* A count (jobs, state cap): an integer in [0, max_int].  The bound is
   strict because [float_of_int max_int] rounds up to 2^62, which
   [int_of_float] would wrap to a negative count. *)
let count_field name = function
  | Num v when Float.is_integer v && v >= 0.0 && v < float_of_int max_int -> int_of_float v
  | _ -> fail "field %s is not an integer in [0, max_int]" name

let bool_field ~default name json =
  match member name json with
  | Some (Bool b) -> b
  | None -> default
  | Some _ -> fail "field %s is not a boolean" name

(* ------------------------------------------------------------------ *)
(* Option value stringifiers — the CLI's own vocabulary                *)
(* ------------------------------------------------------------------ *)

let method_to_string = function
  | None -> "auto"
  | Some Markov.Steady.Direct -> "direct"
  | Some Markov.Steady.Jacobi -> "jacobi"
  | Some Markov.Steady.Gauss_seidel -> "gauss-seidel"
  | Some Markov.Steady.Power -> "power"
  | Some Markov.Steady.Bicgstab -> "bicgstab"
  | Some (Markov.Steady.Sor w) -> Printf.sprintf "sor:%g" w

let method_of_string = function
  | "auto" -> None
  | "direct" -> Some Markov.Steady.Direct
  | "jacobi" -> Some Markov.Steady.Jacobi
  | "gauss-seidel" | "gs" -> Some Markov.Steady.Gauss_seidel
  | "power" -> Some Markov.Steady.Power
  | "bicgstab" -> Some Markov.Steady.Bicgstab
  | other -> (
      (* "sor" or "sor:<omega>", omega in (0, 2); plain "sor" uses a
         mild over-relaxation. *)
      match String.split_on_char ':' other with
      | [ "sor" ] -> Some (Markov.Steady.Sor 1.2)
      | [ "sor"; omega ] -> (
          match float_of_string_opt omega with
          | Some w when w > 0.0 && w < 2.0 -> Some (Markov.Steady.Sor w)
          | Some _ | None -> fail "SOR relaxation %s outside (0, 2)" omega)
      | _ ->
          fail
            "unknown method %s (valid: auto, direct, jacobi, gauss-seidel, sor[:omega], \
             power, bicgstab)"
            other)

let fluid_to_string = function
  | None -> "off"
  | Some t -> Printf.sprintf "%g,%g" t.Fluid.Rk45.rtol t.Fluid.Rk45.atol

let fluid_of_string = function
  | "off" -> None
  | s -> (
      let positive v =
        match float_of_string_opt v with Some f when f > 0.0 -> Some f | _ -> None
      in
      let invalid () =
        fail
          "invalid fluid tolerances %s (valid: RTOL or RTOL,ATOL with both positive, e.g. \
           1e-8 or 1e-8,1e-12)"
          s
      in
      match String.split_on_char ',' s with
      | [ rtol ] -> (
          match positive rtol with
          | Some r -> Some { Fluid.Rk45.default_tolerances with Fluid.Rk45.rtol = r }
          | None -> invalid ())
      | [ rtol; atol ] -> (
          match (positive rtol, positive atol) with
          | Some r, Some a -> Some { Fluid.Rk45.rtol = r; atol = a }
          | _ -> invalid ())
      | _ -> invalid ())

let kind_to_string = function Pepa -> "pepa" | Net -> "net"

let kind_of_string = function
  | "pepa" -> Pepa
  | "net" -> Net
  | other -> fail "unknown model kind %s (valid: pepa, net)" other

let backend_to_string = function Exact -> "exact" | Lump -> "lump" | Fluid_ode -> "fluid"

let backend_of_string = function
  | "exact" -> Exact
  | "lump" -> Lump
  | "fluid" -> Fluid_ode
  | other -> fail "unknown sweep backend %s (valid: exact, lump, fluid)" other

let options_to_json o =
  Obj
    [
      ("method", Str (method_to_string o.method_));
      ("aggregate", Str (Markov.Lump.mode_to_string o.aggregate));
      ("fluid", Str (fluid_to_string o.fluid));
      ("jobs", Num (float_of_int o.jobs));
      ("max_states", (match o.max_states with None -> Null | Some n -> Num (float_of_int n)));
      ("restart", Str (match o.restart with `Cycle -> "cycle" | `Absorb -> "absorb"));
    ]

let options_of_json json =
  match member "options" json with
  | None | Some Null -> default_options
  | Some o ->
      let aggregate =
        match member "aggregate" o with
        | None -> Markov.Lump.No_agg
        | Some (Str s) -> (
            match Markov.Lump.mode_of_string s with
            | Some m -> m
            | None -> fail "unknown aggregation mode %s" s)
        | Some _ -> fail "field aggregate is not a string"
      in
      let jobs = match member "jobs" o with None -> 1 | Some v -> count_field "jobs" v in
      let max_states =
        match member "max_states" o with
        | None | Some Null -> None
        | Some v -> Some (count_field "max_states" v)
      in
      let restart =
        match member "restart" o with
        | None | Some (Str "cycle") -> `Cycle
        | Some (Str "absorb") -> `Absorb
        | Some (Str s) -> fail "unknown restart policy %s (valid: cycle, absorb)" s
        | Some _ -> fail "field restart is not a string"
      in
      {
        method_ =
          (match member "method" o with
          | None -> None
          | Some (Str s) -> method_of_string s
          | Some _ -> fail "field method is not a string");
        aggregate;
        fluid =
          (match member "fluid" o with
          | None | Some Null -> None
          | Some (Str s) -> fluid_of_string s
          | Some _ -> fail "field fluid is not a string");
        jobs;
        max_states;
        restart;
      }

let axis_to_json a =
  let target, name =
    match a.target with `Rate n -> ("rate", n) | `Replicas n -> ("replicas", n)
  in
  Obj
    [
      ("target", Str target);
      ("name", Str name);
      ("values", Arr (List.map (fun v -> Num v) a.values));
    ]

let axis_of_json json =
  let name = str_field "name" json in
  let target =
    match str_field "target" json with
    | "rate" -> `Rate name
    | "replicas" -> `Replicas name
    | other -> fail "unknown axis target %s (valid: rate, replicas)" other
  in
  let values =
    match member "values" json with
    | Some (Arr vs) ->
        List.map
          (function Num v -> v | _ -> fail "axis %s has a non-numeric value" name)
          vs
    | _ -> fail "axis %s has no values array" name
  in
  if values = [] then fail "axis %s has an empty values array" name;
  { target; values }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let rates_field rates =
  ("rates", match rates with None -> Null | Some s -> Str s)

let request_to_json = function
  | Solve { kind; name; source; options } ->
      Obj
        [
          ("verb", Str "solve");
          ("kind", Str (kind_to_string kind));
          ("name", Str name);
          ("source", Str source);
          ("options", options_to_json options);
        ]
  | Pipeline { name; document; rates; options } ->
      Obj
        [
          ("verb", Str "pipeline");
          ("name", Str name);
          ("document", Str document);
          rates_field rates;
          ("options", options_to_json options);
        ]
  | Query { kind; name; source; query; options } ->
      Obj
        [
          ("verb", Str "query");
          ("kind", Str (kind_to_string kind));
          ("name", Str name);
          ("source", Str source);
          ("query", Str query);
          ("options", options_to_json options);
        ]
  | Reflect { name; document; rates; options } ->
      Obj
        [
          ("verb", Str "reflect");
          ("name", Str name);
          ("document", Str document);
          rates_field rates;
          ("options", options_to_json options);
        ]
  | Sweep { kind; name; source; options; axes; backend; warm_start } ->
      Obj
        [
          ("verb", Str "sweep");
          ("kind", Str (kind_to_string kind));
          ("name", Str name);
          ("source", Str source);
          ("options", options_to_json options);
          ("axes", Arr (List.map axis_to_json axes));
          ("backend", Str (backend_to_string backend));
          ("warm_start", Bool warm_start);
        ]
  | Stats -> Obj [ ("verb", Str "stats") ]
  | Shutdown -> Obj [ ("verb", Str "shutdown") ]

let request_of_json json =
  match str_field "verb" json with
  | "solve" ->
      Solve
        {
          kind = kind_of_string (str_field "kind" json);
          name = str_field "name" json;
          source = str_field "source" json;
          options = options_of_json json;
        }
  | "pipeline" ->
      Pipeline
        {
          name = str_field "name" json;
          document = str_field "document" json;
          rates = opt_str_field "rates" json;
          options = options_of_json json;
        }
  | "query" ->
      Query
        {
          kind = kind_of_string (str_field "kind" json);
          name = str_field "name" json;
          source = str_field "source" json;
          query = str_field "query" json;
          options = options_of_json json;
        }
  | "reflect" ->
      Reflect
        {
          name = str_field "name" json;
          document = str_field "document" json;
          rates = opt_str_field "rates" json;
          options = options_of_json json;
        }
  | "sweep" ->
      let axes =
        match member "axes" json with
        | Some (Arr axes) -> List.map axis_of_json axes
        | _ -> fail "sweep request has no axes array"
      in
      if axes = [] then fail "sweep request has an empty axes array";
      Sweep
        {
          kind = kind_of_string (str_field "kind" json);
          name = str_field "name" json;
          source = str_field "source" json;
          options = options_of_json json;
          axes;
          backend = backend_of_string (str_field "backend" json);
          warm_start = bool_field ~default:true "warm_start" json;
        }
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | other -> fail "unknown verb %s" other

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let response_to_json = function
  | Ok_response { output; diagnostics; data } ->
      Obj
        [
          ("status", Str "ok");
          ("output", Str output);
          ("diagnostics", Str diagnostics);
          ("data", data);
        ]
  | Error_response { code; message } ->
      Obj
        [ ("status", Str "error"); ("code", Num (float_of_int code)); ("message", Str message) ]

let response_of_json json =
  match str_field "status" json with
  | "ok" ->
      Ok_response
        {
          output = str_field "output" json;
          diagnostics = str_field "diagnostics" json;
          data = (match member "data" json with Some d -> d | None -> Null);
        }
  | "error" ->
      Error_response
        { code = int_of_float (num_field "code" json); message = str_field "message" json }
  | other -> fail "unknown response status %s" other
