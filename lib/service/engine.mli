(** The analysis engine: executes protocol requests against a
    content-hash model cache.  The daemon keeps one engine for its
    lifetime; the one-shot [workbench solve] and [query] answer their
    single request on a fresh one, so both share one stage graph and
    one error contract.

    The engine composes no analysis itself: [solve], [query] and
    [sweep] run the {!Choreographer.Workbench} compositions, and only
    supply their memo hook ({!Choreographer.Workbench.memo}).  Models
    are cached under the MD5 of their source (per kind); a cache entry
    is a lock and the table behind the hook, holding the artefact of
    every stage already run for the model — parsed AST, compiled
    component tree, derived state space, solved analysis — under the
    stage key the composition gives it.  The hook times the stages it
    runs and counts the ones it serves on ["cache_stage_hits"]; UML
    documents get two stages of the engine's own, ["ingest"] and
    ["pipeline"], through the same hook.  A repeated request re-runs nothing; a request
    that changes only the solve method reuses the derived state space;
    a source change misses the cache entirely.  State spaces are
    deliberately {e not} keyed by job count (exploration is sequential
    at every job count), so a space derived for a [--jobs 4] request
    serves a sequential request and vice versa — one reason daemon
    responses are byte-identical to one-shot runs at every [--jobs].

    Requests for the same model serialise on the entry's lock;
    requests for distinct models run concurrently.  The caller (the
    server) is responsible for routing requests with an effective job
    count above 1 to the domain that owns the [Par] pools. *)

type t

val create : ?cache_capacity:int -> unit -> t

type outcome = {
  response : Protocol.response;
  tool : string;  (** e.g. ["choreographerd solve"], for the ledger *)
  model_name : string;
  model_hash : string;  (** MD5 of the analysed source; [""] for stats/shutdown *)
  option_pairs : (string * string) list;  (** normalised, ledger-ready *)
  stages : (string * float) list;
      (** wall seconds of each stage this request actually ran, in
          execution order; stages served from cache are absent (and
          counted on the ["cache_stage_hits"] metric) *)
  status : string;  (** ["ok"] or the error status, ledger-ready *)
}

val handle : t -> Protocol.request -> outcome
(** Execute one request.  Never raises on analysis failures — they
    come back as {!Protocol.Error_response} with the CLI exit code and
    stderr bytes ({!Errors}); unexpected exceptions are reported with
    code 125.  [Shutdown] is acknowledged with an empty
    ok response; actually stopping is the server's business. *)

val stats_json : t -> Obs.Json.t
(** The [stats] verb payload: uptime, request count, cache occupancy
    and lifetime hit/miss/eviction counts, and the effective parallel
    job limit. *)
