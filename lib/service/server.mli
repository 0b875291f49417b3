(** The choreographerd server loop: listeners, worker domains, and the
    live metrics endpoint, wrapped around an {!Engine}.

    One Unix-domain socket (and optionally one TCP socket) carries two
    protocols, told apart by the first four bytes of each exchange: a
    frame header (see {!Frame}) starts a framed JSON request/response
    session, while ["GET "] starts a plain HTTP exchange answered with
    the metrics registry in Prometheus exposition format (scrape
    [GET /metrics] with [curl --unix-socket]).

    Concurrency model: [workers] domains accept and serve connections;
    a request whose effective job count is 1 (the default) runs
    entirely on its worker, so distinct models solve in parallel.
    The solvers' [Par] pools are coordinator-only, so a request asking
    for [jobs > 1] is shipped to the main domain — the one that called {!run} and
    owns the pools — and such requests serialise among themselves
    while jobs=1 traffic keeps flowing on the workers. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;  (** bind address and port, e.g. ("127.0.0.1", 4747) *)
  workers : int;  (** accept/serve domains (clamped to at least 1) *)
  cache_capacity : int;  (** compiled models kept by the LRU cache *)
  ledger : string option;  (** per-request flight records appended here;
                               [None] disables recording *)
}

val read_deadline_s : float
(** Seconds a connection may wait between bytes of a request (5):
    every read, framed or HTTP, gives up after this long, and the
    connection is closed and its worker freed. *)

val default_socket_path : unit -> string
(** [$CHOREOGRAPHER_SOCKET] if set, else [~/.choreographer/daemon.sock]. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serve until a [shutdown] request arrives, then drain and return.
    Must be called from the domain that owns the [Par] pools (the
    process's main domain, in the daemon binary).  [on_ready] fires
    once the listeners are bound and the workers started — the hook
    the daemon uses to announce readiness and tests use to
    synchronise.  Enables telemetry collection (the metrics endpoint
    is meaningless without it), installs nothing [at_exit], removes
    the socket file on return.  Raises [Unix.Unix_error] if a listener
    cannot be bound. *)
