let default_socket_path () =
  match Sys.getenv_opt "CHOREOGRAPHER_SOCKET" with
  | Some s when s <> "" -> s
  | _ ->
      let home =
        match Sys.getenv_opt "HOME" with Some h when h <> "" -> h | _ -> "."
      in
      Filename.concat home (Filename.concat ".choreographer" "daemon.sock")

type config = {
  socket_path : string;
  tcp : (string * int) option;
  workers : int;
  cache_capacity : int;
  ledger : string option;
}

(* ------------------------------------------------------------------ *)
(* Small IO helpers                                                    *)
(* ------------------------------------------------------------------ *)

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (pos + n) (len - n)
  end

let write_string fd s = write_all fd (Bytes.of_string s) 0 (String.length s)

let ensure_parent_dir path =
  let dir = Filename.dirname path in
  if dir <> "." && dir <> "/" && not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* HTTP: the metrics endpoint                                          *)
(* ------------------------------------------------------------------ *)

(* Called after the sniffed "GET " has been consumed; reads the rest of
   the request head, answers, and lets the caller close the socket
   (HTTP/1.0-style one exchange per connection is all curl needs). *)
let serve_http fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  (* Head terminator: blank line, tolerating bare LF from hand-rolled
     clients. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  let rec drain () =
    let seen = Buffer.contents buf in
    if
      Buffer.length buf < 8192
      && not (contains seen "\r\n\r\n")
      && not (contains seen "\n\n")
    then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      | exception Unix.Unix_error _ -> ()
  in
  drain ();
  let head = Buffer.contents buf in
  let target =
    match String.index_opt head ' ' with
    | Some i -> String.sub head 0 i
    | None -> ( match String.index_opt head '\r' with
               | Some i -> String.sub head 0 i
               | None -> head)
  in
  let status, content_type, body =
    match target with
    | "/metrics" | "/metrics/" ->
        ( "200 OK",
          "text/plain; version=0.0.4",
          Obs.Sink.prometheus (Obs.Metrics.snapshot ()) )
    | "/stats" | "/stats/" -> ("200 OK", "application/json", "")
    | _ -> ("404 Not Found", "text/plain", "not found: try /metrics\n")
  in
  (status, content_type, body)

(* ------------------------------------------------------------------ *)
(* The server                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  engine : Engine.t;
  listeners : Unix.file_descr list;
  stop : bool Atomic.t;
  exec_lock : Mutex.t;
  exec_cond : Condition.t;
  exec_queue : (unit -> unit) Queue.t;
  live_workers : int Atomic.t;
  socket_unlinked : bool Atomic.t;
}

(* Remove the socket file exactly once — at shutdown initiation, so by
   the time a client sees the shutdown acknowledgement the path is free
   for a successor daemon to bind (the old process may linger a beat
   draining its workers). *)
let unlink_socket t =
  if not (Atomic.exchange t.socket_unlinked true) then
    try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ()

(* Ship [thunk] to the main domain (the [Par] pool owner) and block the
   calling worker until it has run there. *)
let submit_to_main t thunk =
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let cell = ref None in
  let wrapped () =
    let outcome = try Ok (thunk ()) with e -> Error e in
    Mutex.lock lock;
    cell := Some outcome;
    Condition.signal cond;
    Mutex.unlock lock
  in
  Mutex.lock t.exec_lock;
  Queue.push wrapped t.exec_queue;
  Condition.signal t.exec_cond;
  Mutex.unlock t.exec_lock;
  Mutex.lock lock;
  while Option.is_none !cell do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  match !cell with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> assert false

let initiate_stop t =
  Atomic.set t.stop true;
  unlink_socket t;
  Mutex.lock t.exec_lock;
  Condition.broadcast t.exec_cond;
  Mutex.unlock t.exec_lock

let effective_jobs = function
  | Protocol.Solve { options; _ }
  | Protocol.Pipeline { options; _ }
  | Protocol.Query { options; _ }
  | Protocol.Reflect { options; _ }
  | Protocol.Sweep { options; _ } ->
      Par.resolve options.Protocol.jobs
  | Protocol.Stats | Protocol.Shutdown -> 1

let emit_ledger t (outcome : Engine.outcome) before =
  match t.config.ledger with
  | None -> ()
  | Some path -> (
      let scoped = Obs.Metrics.diff_snapshots before (Obs.Metrics.scalar_snapshot ()) in
      try
        Obs.Ledger.emit_now ~path ~tool:outcome.Engine.tool
          ~model:outcome.Engine.model_name ~model_hash:outcome.Engine.model_hash
          ~options:outcome.Engine.option_pairs ~stages:outcome.Engine.stages
          ~counters:scoped.Obs.Metrics.counters ~gauges:scoped.Obs.Metrics.gauges
          ~exit_status:outcome.Engine.status ()
      with Sys_error _ | Unix.Unix_error _ -> ())

(* Decoding and job resolution both run inside the error contract: a
   request they reject gets code 1, and nothing they raise can reach
   the worker loop, which would end the worker domain. *)
let process t payload =
  let invalid msg =
    Protocol.Error_response
      { code = 1; message = Printf.sprintf "error: invalid request: %s\n" msg }
  in
  match
    let request = Protocol.request_of_json (Obs.Json.of_string payload) in
    (request, effective_jobs request)
  with
  | exception Obs.Json.Parse_error msg ->
      Protocol.Error_response
        { code = 1; message = Printf.sprintf "error: request is not JSON: %s\n" msg }
  | exception Protocol.Protocol_error msg -> invalid msg
  | exception Invalid_argument msg -> invalid msg
  | request, jobs ->
      let before = Obs.Metrics.scalar_snapshot () in
      let outcome =
        if jobs > 1 && not (Atomic.get t.stop) then
          submit_to_main t (fun () -> Engine.handle t.engine request)
        else Engine.handle t.engine request
      in
      (match request with
      | Protocol.Stats | Protocol.Shutdown -> ()
      | _ -> emit_ledger t outcome before);
      (match request with Protocol.Shutdown -> initiate_stop t | _ -> ());
      outcome.Engine.response

(* Every read on a connection, framed or HTTP, gives up after this long
   without a byte.  A client that connects and goes quiet is closed
   and its worker freed, so N idle sockets cannot lock out a daemon
   with N workers. *)
let read_deadline_s = 5.0

let handle_connection t fd =
  let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally @@ fun () ->
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_deadline_s;
    let rec loop () =
      match Frame.read_exact fd 4 with
      | None -> ()
      | Some "GET " ->
          let status, content_type, body = serve_http fd in
          let body =
            if body = "" && status = "200 OK" then
              Obs.Json.to_string ~pretty:true (Engine.stats_json t.engine) ^ "\n"
            else body
          in
          write_string fd
            (Printf.sprintf
               "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
                Connection: close\r\n\r\n%s"
               status content_type (String.length body) body)
      | Some header ->
          let payload = Frame.read_payload fd ~header in
          let response = process t payload in
          Frame.write fd (Obs.Json.to_string (Protocol.response_to_json response));
          if not (Atomic.get t.stop) then loop ()
    in
    loop ()
  with
  | Frame.Frame_error _ | Unix.Unix_error _ | Obs.Json.Parse_error _ -> ()

let worker_loop t =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select t.listeners [] [] 0.25 with
      | ready, _, _ ->
          List.iter
            (fun listener ->
              match Unix.accept ~cloexec:true listener with
              | client, _ ->
                  (try Unix.clear_nonblock client with Unix.Unix_error _ -> ());
                  handle_connection t client
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                ->
                  ())
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Atomic.decr t.live_workers

(* Main-domain loop: run queued jobs>1 requests until shutdown, then
   keep draining until every worker has exited (a worker may enqueue a
   job between the stop flag flipping and its own exit — leaving it
   queued would deadlock the join). *)
let executor_loop t =
  let pop_job () =
    Mutex.lock t.exec_lock;
    while Queue.is_empty t.exec_queue && not (Atomic.get t.stop) do
      Condition.wait t.exec_cond t.exec_lock
    done;
    let job = Queue.take_opt t.exec_queue in
    Mutex.unlock t.exec_lock;
    job
  in
  let rec serve () =
    match pop_job () with
    | Some job ->
        job ();
        serve ()
    | None -> if not (Atomic.get t.stop) then serve ()
  in
  serve ();
  let rec drain () =
    if Atomic.get t.live_workers > 0 then begin
      Mutex.lock t.exec_lock;
      let job = Queue.take_opt t.exec_queue in
      Mutex.unlock t.exec_lock;
      (match job with Some job -> job () | None -> Unix.sleepf 0.01);
      drain ()
    end
  in
  drain ()

let make_unix_listener path =
  ensure_parent_dir path;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let make_tcp_listener (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback)
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let run ?(on_ready = fun () -> ()) config =
  Obs.Config.enable ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let unix_listener = make_unix_listener config.socket_path in
  let listeners =
    unix_listener :: (match config.tcp with Some hp -> [ make_tcp_listener hp ] | None -> [])
  in
  let workers = max 1 config.workers in
  let t =
    {
      config;
      engine = Engine.create ~cache_capacity:config.cache_capacity ();
      listeners;
      stop = Atomic.make false;
      exec_lock = Mutex.create ();
      exec_cond = Condition.create ();
      exec_queue = Queue.create ();
      live_workers = Atomic.make workers;
      socket_unlinked = Atomic.make false;
    }
  in
  let domains = List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t)) in
  on_ready ();
  executor_loop t;
  List.iter Domain.join domains;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  unlink_socket t
