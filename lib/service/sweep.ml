type point = {
  assignment : (string * float) list;
  n_states : int;
  iterations : int;
  warm : bool;
  solve_s : float;
  throughputs : (string * float) list;
}

type result = { points : point list; total_s : float }

module W = Choreographer.Workbench

let fail fmt = Printf.ksprintf (fun msg -> raise (W.Analysis_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* Model rewriting                                                     *)
(* ------------------------------------------------------------------ *)

open Pepa.Syntax

let rec rewrite_replicas ~target ~count = function
  | Array_rep (Var v, _) when v = target -> Array_rep (Var v, count)
  | Array_rep (p, n) -> Array_rep (rewrite_replicas ~target ~count p, n)
  | Prefix (a, r, p) -> Prefix (a, r, rewrite_replicas ~target ~count p)
  | Choice (p, q) ->
      Choice (rewrite_replicas ~target ~count p, rewrite_replicas ~target ~count q)
  | Coop (p, acts, q) ->
      Coop (rewrite_replicas ~target ~count p, acts, rewrite_replicas ~target ~count q)
  | Hide (p, acts) -> Hide (rewrite_replicas ~target ~count p, acts)
  | (Stop | Var _) as e -> e

let rec mentions_replicated ~target = function
  | Array_rep (Var v, _) when v = target -> true
  | Array_rep (p, _) | Prefix (_, _, p) | Hide (p, _) -> mentions_replicated ~target p
  | Choice (p, q) | Coop (p, _, q) ->
      mentions_replicated ~target p || mentions_replicated ~target q
  | Stop | Var _ -> false

let apply_axis ~name model (target, value) =
  match target with
  | `Rate rate ->
      let hit = ref false in
      let definitions =
        List.map
          (function
            | Rate_def (n, _) when n = rate ->
                hit := true;
                Rate_def (n, Rnum value)
            | def -> def)
          model.definitions
      in
      if not !hit then fail "%s: sweep axis %s does not match any rate definition" name rate;
      { model with definitions }
  | `Replicas component ->
      let count = int_of_float (Float.round value) in
      if count < 1 then fail "%s: sweep replica count %g for %s is not positive" name value component;
      let found =
        mentions_replicated ~target:component model.system
        || List.exists
             (function
               | Proc_def (_, body) -> mentions_replicated ~target:component body
               | Rate_def _ -> false)
             model.definitions
      in
      if not found then
        fail "%s: sweep axis %s does not match any replicated component" name component;
      {
        definitions =
          List.map
            (function
              | Proc_def (n, body) ->
                  Proc_def (n, rewrite_replicas ~target:component ~count body)
              | def -> def)
            model.definitions;
        system = rewrite_replicas ~target:component ~count model.system;
      }

(* Row-major grid: the last axis varies fastest. *)
let grid axes =
  List.fold_right
    (fun (axis : Protocol.axis) acc ->
      List.concat_map
        (fun v -> List.map (fun rest -> (axis.Protocol.target, v) :: rest) acc)
        axis.Protocol.values)
    axes [ [] ]

let target_name = function `Rate n -> n | `Replicas n -> n

(* ------------------------------------------------------------------ *)
(* Per-point solves                                                    *)
(* ------------------------------------------------------------------ *)

let run ~name ~model ~(options : Protocol.options) ~axes ~backend ~warm_start =
  let t_start = Unix.gettimeofday () in
  let { Protocol.method_; max_states; jobs; _ } = options in
  let symmetry = Markov.Lump.symmetry_enabled options.Protocol.aggregate in
  (* The exact backend solves the full chain, the lumped one the
     quotient, both on the space the request's aggregation derives. *)
  let aggregate ~lump =
    match (symmetry, lump) with
    | false, false -> Markov.Lump.No_agg
    | true, false -> Markov.Lump.Symmetry
    | false, true -> Markov.Lump.Lumping
    | true, true -> Markov.Lump.Both
  in
  (* The previous point's solution, passed to the solve stage as its
     starting vector after a rate move.  A replica move starts cold: it
     changes the chain's dimension, and the fluid populations keep
     theirs but hold the old replica counts, from which the ODE would
     converge to the old fixed point.  The lumped backend always solves
     cold. *)
  let replicas = List.filter (function `Replicas _, _ -> true | `Rate _, _ -> false) in
  let previous = ref None in
  let start assignment =
    match !previous with
    | Some (counts, x) when warm_start && counts = replicas assignment -> Some x
    | _ -> None
  in
  let warm start dim = match start with Some x -> Array.length x = dim | None -> false in
  let points =
    List.map
      (fun assignment ->
        let t0 = Unix.gettimeofday () in
        let point_model = W.Model (List.fold_left (apply_axis ~name) model assignment) in
        let results, iterations, warm =
          match backend with
          | Protocol.Exact | Protocol.Lump ->
              let lump = backend = Protocol.Lump in
              let initial = if lump then None else start assignment in
              let analysis, stats =
                W.pepa_exact ~name ?method_ ?max_states ~aggregate:(aggregate ~lump) ~jobs
                  ?initial point_model
              in
              previous :=
                if lump then None else Some (replicas assignment, analysis.W.distribution);
              let results = analysis.W.results in
              ( results,
                Option.fold ~none:0 ~some:(fun s -> s.Markov.Steady.iterations) stats,
                warm initial results.Choreographer.Results.n_states )
          | Protocol.Fluid_ode ->
              let x0 = Option.map Array.copy (start assignment) in
              let analysis =
                W.pepa_fluid ~name ?tolerances:options.Protocol.fluid ?x0 point_model
              in
              previous := Some (replicas assignment, analysis.W.populations);
              let results = analysis.W.fluid_results in
              ( results,
                analysis.W.fluid_stats.Fluid.Rk45.steps,
                warm x0 results.Choreographer.Results.n_states )
        in
        {
          assignment =
            List.map (fun (target, v) -> (target_name target, v)) assignment;
          n_states = results.Choreographer.Results.n_states;
          iterations;
          warm;
          solve_s = Unix.gettimeofday () -. t0;
          throughputs = results.Choreographer.Results.throughputs;
        })
      (grid axes)
  in
  { points; total_s = Unix.gettimeofday () -. t_start }

let to_json ~backend ~warm_start result =
  let open Obs.Json in
  let point_json p =
    Obj
      [
        ("assignment", Obj (List.map (fun (n, v) -> (n, Num v)) p.assignment));
        ("n_states", Num (float_of_int p.n_states));
        ("iterations", Num (float_of_int p.iterations));
        ("warm", Bool p.warm);
        ("solve_s", Num p.solve_s);
        ("throughputs", Obj (List.map (fun (n, v) -> (n, Num v)) p.throughputs));
      ]
  in
  Obj
    [
      ( "backend",
        Str
          (match backend with
          | Protocol.Exact -> "exact"
          | Protocol.Lump -> "lump"
          | Protocol.Fluid_ode -> "fluid") );
      ("warm_start", Bool warm_start);
      ("points", Arr (List.map point_json result.points));
      ("total_s", Num result.total_s);
    ]
