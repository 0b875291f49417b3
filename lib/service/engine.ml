module W = Choreographer.Workbench
module Render = Choreographer.Render

let requests = Obs.Metrics.counter "requests"
let request_errors = Obs.Metrics.counter "request_errors"

let stage_hits = Obs.Metrics.counter "cache_stage_hits"
(* One increment per stage served from a cache entry instead of being
   re-run — the counter the acceptance smoke test watches climb on a
   repeated solve. *)

(* A memo table holds the artefacts of every stage run for one model
   source, each with the type identity it was stored under. *)
type artefact = Artefact : 'a Type.Id.t * 'a -> artefact

type entry = { lock : Mutex.t; mutable memo : (string * artefact) list }

type t = {
  cache : entry Cache.t;
  started : float;
  count_lock : Mutex.t;
  mutable request_count : int;
}

type outcome = {
  response : Protocol.response;
  tool : string;
  model_name : string;
  model_hash : string;
  option_pairs : (string * string) list;
  stages : (string * float) list;
  status : string;
}

exception Ingest_failure of string
(* An [Error msg] from {!Choreographer.Ingest}: the CLI prints [msg]
   bare (no "error: " prefix) and exits 1, so it needs its own path
   through the error contract. *)

let create ?cache_capacity () =
  {
    cache = Cache.create ?capacity:cache_capacity ();
    started = Unix.gettimeofday ();
    count_lock = Mutex.create ();
    request_count = 0;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let timed stages label f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  stages := (label, Unix.gettimeofday () -. t0) :: !stages;
  v

let stored : type a. a Type.Id.t -> artefact -> a option =
 fun id (Artefact (id', v)) ->
  match Type.Id.provably_equal id id' with Some Type.Equal -> Some v | None -> None

(* The hook the workbench compositions run their stages through: look a
   stage up in the entry's memo, running [build] (timed, under the given
   stage label) on a miss.  A hit records no stage time; skipped work is
   exactly what the ledger's missing stages and the [cache_stage_hits]
   counter communicate. *)
let memo entry stages =
  {
    W.run =
      (fun id ~stage ~key build ->
        match Option.bind (List.assoc_opt key entry.memo) (stored id) with
        | Some v ->
            Obs.Metrics.incr stage_hits;
            v
        | None ->
            let v = timed stages stage build in
            entry.memo <- (key, Artefact (id, v)) :: List.remove_assoc key entry.memo;
            v);
  }

let opt_int = function None -> "-" | Some n -> string_of_int n

let diagnostics stats = Option.fold ~none:"" ~some:Render.solver_stats_line stats

let document_id = Type.Id.make ()
let outcome_id = Type.Id.make ()

let pipeline_outcome memo ~name ~source ~rates ~(options : Protocol.options) =
  let doc =
    memo.W.run document_id ~stage:"ingest" ~key:"document" (fun () ->
        match Choreographer.Ingest.document_of_string ~name source with
        | Ok doc -> doc
        | Error msg -> raise (Ingest_failure msg))
  in
  let rates_book =
    match rates with
    | None -> Uml.Rates_file.empty
    | Some src -> (
        match Choreographer.Ingest.rates_of_string ~name:"rates" src with
        | Ok book -> book
        | Error msg -> raise (Ingest_failure msg))
  in
  let rates_hash =
    match rates with None -> "-" | Some src -> Digest.to_hex (Digest.string src)
  in
  memo.W.run outcome_id ~stage:"pipeline"
    ~key:
      (Printf.sprintf "pipeline:restart=%s:method=%s:max=%s:agg=%s:fluid=%s:rates=%s"
         (match options.Protocol.restart with `Cycle -> "cycle" | `Absorb -> "absorb")
         (Protocol.method_to_string options.Protocol.method_)
         (opt_int options.Protocol.max_states)
         (Markov.Lump.mode_to_string options.Protocol.aggregate)
         (Protocol.fluid_to_string options.Protocol.fluid)
         rates_hash)
    (fun () ->
      let outcome =
        Choreographer.Pipeline.process_document
          ~options:(Protocol.pipeline_options ~rates:rates_book options)
          doc
      in
      (outcome, diagnostics (Markov.Steady.last_stats ())))

(* ------------------------------------------------------------------ *)
(* Verbs                                                               *)
(* ------------------------------------------------------------------ *)

let entry_key kind source = Protocol.kind_to_string kind ^ ":" ^ Digest.string source
let fresh_entry () = { lock = Mutex.create (); memo = [] }

let normalise (options : Protocol.options) =
  { options with Protocol.jobs = Par.resolve options.Protocol.jobs }

let stats_json t =
  let hits, misses, evictions = Cache.counts t.cache in
  let num n = Obs.Json.Num (float_of_int n) in
  Obs.Json.Obj
    [
      ("uptime_s", Obs.Json.Num (Unix.gettimeofday () -. t.started));
      ("requests", num (with_lock t.count_lock (fun () -> t.request_count)));
      ("jobs_limit", num (Par.jobs ()));
      ( "cache",
        Obs.Json.Obj
          [
            ("entries", num (Cache.length t.cache));
            ("capacity", num (Cache.capacity t.cache));
            ("hits", num hits);
            ("misses", num misses);
            ("evictions", num evictions);
          ] );
    ]

let ok ?(output = "") ?(diagnostics = "") ?(data = Obs.Json.Null) () =
  Protocol.Ok_response { output; diagnostics; data }

let handle t request =
  with_lock t.count_lock (fun () -> t.request_count <- t.request_count + 1);
  Obs.Metrics.incr requests;
  let stages = ref [] in
  (* Run [f] under the lock of the cache entry for [key], with the hook
     that serves that entry's stages. *)
  let cached key f =
    let entry, _ = Cache.find_or_create t.cache ~key fresh_entry in
    with_lock entry.lock (fun () -> f (memo entry stages))
  in
  let tool, model_name, model_hash, option_pairs, work =
    match request with
    | Protocol.Stats ->
        ("choreographerd stats", "-", "", [], fun () -> ok ~data:(stats_json t) ())
    | Protocol.Shutdown -> ("choreographerd shutdown", "-", "", [], fun () -> ok ())
    | Protocol.Solve { kind; name; source; options } ->
        let options = normalise options in
        let hash = Digest.to_hex (Digest.string source) in
        let pairs =
          Protocol.option_pairs options @ [ ("kind", Protocol.kind_to_string kind) ]
        in
        let { Protocol.method_; max_states; aggregate; jobs; _ } = options in
        let input = W.Source source in
        let work () =
          cached (entry_key kind source) (fun memo ->
              match (kind, options.Protocol.fluid) with
              | Protocol.Pepa, None ->
                  let analysis, stats =
                    W.pepa_exact ~memo ~name ?method_ ?max_states ~aggregate ~jobs input
                  in
                  ok ~output:(Render.pepa_solve analysis) ~diagnostics:(diagnostics stats) ()
              | Protocol.Pepa, Some tolerances ->
                  let analysis = W.pepa_fluid ~memo ~name ~tolerances input in
                  ok
                    ~output:(Render.pepa_fluid_solve analysis)
                    ~diagnostics:(Render.fluid_stats_line analysis.W.fluid_stats)
                    ()
              | Protocol.Net, None ->
                  let analysis, stats =
                    W.net_exact ~memo ~name ?method_ ?max_markings:max_states ~aggregate ~jobs
                      input
                  in
                  ok ~output:(Render.net_solve analysis) ~diagnostics:(diagnostics stats) ()
              | Protocol.Net, Some tolerances ->
                  let analysis = W.net_fluid ~memo ~name ~tolerances input in
                  ok
                    ~output:(Render.net_fluid_solve analysis)
                    ~diagnostics:(Render.fluid_stats_line analysis.W.net_fluid_stats)
                    ())
        in
        ("choreographerd solve", name, hash, pairs, work)
    | Protocol.Query { kind; name; source; query; options } ->
        let options = normalise options in
        let hash = Digest.to_hex (Digest.string source) in
        let pairs =
          Protocol.option_pairs options
          @ [ ("kind", Protocol.kind_to_string kind); ("query", query) ]
        in
        let { Protocol.method_; max_states; aggregate; jobs; _ } = options in
        let input = W.Source source in
        let work () =
          cached (entry_key kind source) (fun memo ->
              (* Queries evaluate against the exact solve, as the CLI
                 does; a fluid option on a query request is ignored. *)
              let context =
                match kind with
                | Protocol.Pepa ->
                    Choreographer.Query.context_of_pepa
                      (fst (W.pepa_exact ~memo ~name ?method_ ?max_states ~aggregate ~jobs input))
                | Protocol.Net ->
                    Choreographer.Query.context_of_net
                      (fst
                         (W.net_exact ~memo ~name ?method_ ?max_markings:max_states ~aggregate
                            ~jobs input))
              in
              let value =
                timed stages "query" (fun () ->
                    Choreographer.Query.eval_string context query)
              in
              ok ~output:(Printf.sprintf "%.10g\n" value) ())
        in
        ("choreographerd query", name, hash, pairs, work)
    | Protocol.Pipeline { name; document = source; rates; options }
    | Protocol.Reflect { name; document = source; rates; options } ->
        let options = normalise options in
        let hash = Digest.to_hex (Digest.string source) in
        let pairs =
          Protocol.option_pairs options
          @ [ ("absorb", string_of_bool (options.Protocol.restart = `Absorb)) ]
        in
        (* [reflect] is [pipeline] without the result tables. *)
        let tables = match request with Protocol.Pipeline _ -> true | _ -> false in
        let work () =
          cached ("doc:" ^ Digest.string source) (fun memo ->
              let outcome, diagnostics = pipeline_outcome memo ~name ~source ~rates ~options in
              let results = outcome.Choreographer.Pipeline.results in
              let xml_field key doc = (key, Obs.Json.Str (Xml_kit.Minixml.to_string doc)) in
              let reflected = xml_field "reflected" outcome.Choreographer.Pipeline.reflected in
              if tables then
                ok
                  ~output:(String.concat "" (List.map Render.results results))
                  ~diagnostics
                  ~data:
                    (Obs.Json.Obj
                       [
                         reflected;
                         xml_field "xmltable"
                           (Xml_kit.Minixml.Element
                              ("resultsets", [], List.map Choreographer.Results.to_xmltable results));
                       ])
                  ()
              else ok ~diagnostics ~data:(Obs.Json.Obj [ reflected ]) ())
        in
        let tool = if tables then "choreographerd pipeline" else "choreographerd reflect" in
        (tool, name, hash, pairs, work)
    | Protocol.Sweep { kind; name; source; options; axes; backend; warm_start } ->
        let options = normalise options in
        let hash = Digest.to_hex (Digest.string source) in
        let pairs =
          Protocol.option_pairs options
          @ [
              ("kind", Protocol.kind_to_string kind);
              ("backend", Protocol.backend_to_string backend);
              ("warm_start", string_of_bool warm_start);
              ( "grid",
                string_of_int
                  (List.fold_left
                     (fun acc (a : Protocol.axis) -> acc * List.length a.Protocol.values)
                     1 axes) );
            ]
        in
        let work () =
          if kind <> Protocol.Pepa then
            Protocol.Error_response
              {
                code = Errors.analysis_failure_code;
                message = "error: sweep supports PEPA models (use kind pepa)\n";
              }
          else begin
            cached (entry_key kind source) (fun memo ->
                let model = W.pepa_model ~memo ~name source in
                let result =
                  timed stages "sweep" (fun () ->
                      Sweep.run ~name ~model ~options ~axes ~backend ~warm_start)
                in
                ok ~data:(Sweep.to_json ~backend ~warm_start result) ())
          end
        in
        ("choreographerd sweep", name, hash, pairs, work)
  in
  let finish response status =
    {
      response;
      tool;
      model_name;
      model_hash;
      option_pairs;
      stages = List.rev !stages;
      status;
    }
  in
  match work () with
  | Protocol.Error_response _ as response ->
      Obs.Metrics.incr request_errors;
      finish response "request-error"
  | response -> finish response "ok"
  | exception Ingest_failure msg ->
      Obs.Metrics.incr request_errors;
      finish
        (Protocol.Error_response
           { code = Errors.model_error_code; message = msg ^ "\n" })
        ("error: " ^ msg)
  | exception exn -> (
      Obs.Metrics.incr request_errors;
      match Errors.of_exn exn with
      | Some r ->
          finish (Protocol.Error_response { code = r.code; message = r.message }) r.status
      | None ->
          finish
            (Protocol.Error_response
               {
                 code = 125;
                 message =
                   Printf.sprintf "error: internal failure: %s\n" (Printexc.to_string exn);
               })
            "internal-error")
