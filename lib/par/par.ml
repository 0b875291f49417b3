(* Domain-parallel execution on the stdlib only.  See par.mli for the
   determinism contract; the load-bearing invariants are marked
   inline. *)

let max_domains = 64

let resolve jobs =
  if jobs < 0 then invalid_arg "Par.resolve: jobs must be >= 0"
  else if jobs = 0 then min max_domains (max 1 (Domain.recommended_domain_count ()))
  else min max_domains jobs

let default_jobs = ref 1
let set_jobs n = default_jobs := resolve n
let jobs () = !default_jobs
let recommended () = Domain.recommended_domain_count ()

module Pool = struct
  type t = {
    size : int;
    mutex : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    mutable job : (int -> unit) option;
    mutable epoch : int;
    mutable outstanding : int;
    mutable failure : exn option;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  (* Workers block on [work_ready] until the epoch moves, run the
     current job, then decrement [outstanding] under the mutex.  The
     final decrement wakes the coordinator; that unlock/lock pair is
     the happens-before edge that publishes worker writes. *)
  let worker t index =
    let rec loop last_epoch =
      Mutex.lock t.mutex;
      while (not t.stop) && t.epoch = last_epoch do
        Condition.wait t.work_ready t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        let epoch = t.epoch in
        let job = match t.job with Some f -> f | None -> assert false in
        Mutex.unlock t.mutex;
        let failure = (try job index; None with exn -> Some exn) in
        Mutex.lock t.mutex;
        (match failure with
        | Some _ when t.failure = None -> t.failure <- failure
        | _ -> ());
        t.outstanding <- t.outstanding - 1;
        if t.outstanding = 0 then Condition.broadcast t.work_done;
        Mutex.unlock t.mutex;
        loop epoch
      end
    in
    loop 0

  let create size =
    if size < 1 then invalid_arg "Par.Pool.create: size must be >= 1";
    let t =
      {
        size;
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        job = None;
        epoch = 0;
        outstanding = 0;
        failure = None;
        stop = false;
        domains = [];
      }
    in
    t.domains <-
      List.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
    t

  let size t = t.size

  let run t f =
    if t.size = 1 then f 0
    else begin
      Mutex.lock t.mutex;
      t.job <- Some f;
      t.failure <- None;
      t.epoch <- t.epoch + 1;
      t.outstanding <- t.size - 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      let caller_failure = (try f 0; None with exn -> Some exn) in
      Mutex.lock t.mutex;
      while t.outstanding > 0 do
        Condition.wait t.work_done t.mutex
      done;
      t.job <- None;
      let worker_failure = t.failure in
      t.failure <- None;
      Mutex.unlock t.mutex;
      match (caller_failure, worker_failure) with
      | Some exn, _ | None, Some exn -> raise exn
      | None, None -> ()
    end

  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end

(* Pools are cached per size: spawning domains costs milliseconds, and
   a process analysing many models reuses the same few sizes. *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4
let cleanup_registered = ref false

let shutdown_pools () =
  Hashtbl.iter (fun _ p -> Pool.shutdown p) pools;
  Hashtbl.reset pools

let pool ?jobs () =
  let n = match jobs with Some j -> resolve j | None -> !default_jobs in
  if n <= 1 then None
  else
    match Hashtbl.find_opt pools n with
    | Some p -> Some p
    | None ->
        if not !cleanup_registered then begin
          cleanup_registered := true;
          at_exit shutdown_pools
        end;
        let p = Pool.create n in
        Hashtbl.add pools n p;
        Some p

let default_chunk ~workers n = max 1 ((n + (4 * workers) - 1) / (4 * workers))

let parallel_for p ?chunk ~lo ~hi f =
  let n = hi - lo in
  if n > 0 then begin
    let workers = Pool.size p in
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk ~workers n
    in
    if workers = 1 || n <= chunk then f lo hi
    else begin
      let next = Atomic.make lo in
      Pool.run p (fun _ ->
          let continue = ref true in
          while !continue do
            let start = Atomic.fetch_and_add next chunk in
            if start >= hi then continue := false
            else f start (min hi (start + chunk))
          done)
    end
  end

let parallel_chunks p ?chunk ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then 0
  else begin
    let workers = Pool.size p in
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk ~workers n
    in
    let n_chunks = (n + chunk - 1) / chunk in
    (* Every chunk ordinal runs exactly once even sequentially, so
       callers may index per-chunk scratch space by ordinal. *)
    if n_chunks = 1 then f ~chunk:0 lo hi
    else if workers = 1 then
      for c = 0 to n_chunks - 1 do
        let start = lo + (c * chunk) in
        f ~chunk:c start (min hi (start + chunk))
      done
    else begin
      let next = Atomic.make 0 in
      Pool.run p (fun _ ->
          let continue = ref true in
          while !continue do
            let c = Atomic.fetch_and_add next 1 in
            if c >= n_chunks then continue := false
            else begin
              let start = lo + (c * chunk) in
              f ~chunk:c start (min hi (start + chunk))
            end
          done)
    end;
    n_chunks
  end

let sum_floats p ?chunk ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then 0.0
  else begin
    let workers = Pool.size p in
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk ~workers n
    in
    let n_chunks = (n + chunk - 1) / chunk in
    if workers = 1 || n_chunks = 1 then f lo hi
    else begin
      let partials = Array.make n_chunks 0.0 in
      ignore
        (parallel_chunks p ~chunk ~lo ~hi (fun ~chunk:c start stop ->
             partials.(c) <- f start stop));
      (* Partials combine in chunk order: the sum is a function of the
         chunk grid, not of which worker ran which chunk. *)
      Array.fold_left ( +. ) 0.0 partials
    end
  end
