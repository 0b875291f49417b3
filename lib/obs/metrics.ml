(* Domain-safe registry.  Counters and gauges are atomics (a parallel
   solve incrementing one counter from several domains loses nothing);
   histograms and series mutate several fields per observation and take
   a tiny per-metric mutex instead.  The registry tables themselves are
   guarded by one lock so get-or-create races cannot corrupt a Hashtbl
   or register a name twice.  All of this is off the fast path: with
   collection disabled every mutation is still a single boolean load. *)

type counter = { cname : string; count : int Atomic.t }
type gauge = { gname : string; level : float Atomic.t }

type histogram = {
  hname : string;
  hlock : Mutex.t;
  mutable n : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

type series = {
  sname : string;
  slock : Mutex.t;
  mutable points : (float * float) list; (* reversed *)
}

(* One registry per kind, each remembering registration order so dumps
   are stable. *)
let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let all_series : (string, series) Hashtbl.t = Hashtbl.create 16
let counter_order : string list ref = ref []
let gauge_order : string list ref = ref []
let histogram_order : string list ref = ref []
let series_order : string list ref = ref []

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let find_or_create table order name make =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> m
      | None ->
          let m = make name in
          Hashtbl.add table name m;
          order := name :: !order;
          m)

let counter name =
  find_or_create counters counter_order name (fun cname ->
      { cname; count = Atomic.make 0 })

let add c n = if Config.enabled () then ignore (Atomic.fetch_and_add c.count n)
let incr c = add c 1
let value c = Atomic.get c.count

let gauge name =
  find_or_create gauges gauge_order name (fun gname -> { gname; level = Atomic.make 0.0 })

let set g v = if Config.enabled () then Atomic.set g.level v
let gauge_value g = Atomic.get g.level

(* Atomic compare-and-swap max, so concurrent observers (e.g. the
   sampler domain tracking a high-water mark) never lose a peak. *)
let set_max g v =
  if Config.enabled () then begin
    let rec go () =
      let cur = Atomic.get g.level in
      if v > cur && not (Atomic.compare_and_set g.level cur v) then go ()
    in
    go ()
  end

let histogram name =
  find_or_create histograms histogram_order name (fun hname ->
      { hname; hlock = Mutex.create (); n = 0; sum = 0.0; lo = infinity; hi = neg_infinity })

let observe h v =
  if Config.enabled () then begin
    Mutex.lock h.hlock;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v;
    Mutex.unlock h.hlock
  end

type histogram_stats = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
}

let histogram_stats h =
  Mutex.lock h.hlock;
  let n = h.n and sum = h.sum and lo = h.lo and hi = h.hi in
  Mutex.unlock h.hlock;
  if n = 0 then { count = 0; sum = 0.0; min = 0.0; max = 0.0; mean = 0.0 }
  else { count = n; sum; min = lo; max = hi; mean = sum /. float_of_int n }

let series name =
  find_or_create all_series series_order name (fun sname ->
      { sname; slock = Mutex.create (); points = [] })

let push s ~x ~y =
  if Config.enabled () then begin
    Mutex.lock s.slock;
    s.points <- (x, y) :: s.points;
    Mutex.unlock s.slock
  end

let series_points s =
  Mutex.lock s.slock;
  let pts = s.points in
  Mutex.unlock s.slock;
  List.rev pts

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
  series_data : (string * (float * float) list) list;
}

(* [order] lists names newest-first; rev_map restores registration
   order.  Caller holds the registry lock; the per-metric accessors
   take their own locks. *)
let ordered table order project =
  List.rev_map (fun name -> (name, project (Hashtbl.find table name))) !order

let snapshot () =
  locked (fun () ->
      {
        counters = ordered counters counter_order value;
        gauges = ordered gauges gauge_order gauge_value;
        histograms = ordered histograms histogram_order histogram_stats;
        series_data = ordered all_series series_order series_points;
      })

(* Only the atomics: what [diff_snapshots] reads, at a cost that does
   not grow with the series points a long-lived process accumulates. *)
let scalar_snapshot () =
  locked (fun () ->
      {
        counters = ordered counters counter_order value;
        gauges = ordered gauges gauge_order gauge_value;
        histograms = [];
        series_data = [];
      })

(* Counter deltas between two snapshots: the scoping primitive for
   per-request attribution in a long-running process, where [reset]
   would also zero the cumulative totals the live metrics endpoint
   serves. *)
let diff_snapshots (before : snapshot) (after : snapshot) =
  {
    counters =
      List.filter_map
        (fun (name, v) ->
          let prior = Option.value ~default:0 (List.assoc_opt name before.counters) in
          if v > prior then Some (name, v - prior) else None)
        after.counters;
    gauges =
      List.filter
        (fun (name, v) -> List.assoc_opt name before.gauges <> Some v)
        after.gauges;
    histograms = [];
    series_data = [];
  }

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ (c : counter) -> Atomic.set c.count 0) counters;
      Hashtbl.iter (fun _ (g : gauge) -> Atomic.set g.level 0.0) gauges;
      Hashtbl.iter
        (fun _ h ->
          Mutex.lock h.hlock;
          h.n <- 0;
          h.sum <- 0.0;
          h.lo <- infinity;
          h.hi <- neg_infinity;
          Mutex.unlock h.hlock)
        histograms;
      Hashtbl.iter
        (fun _ s ->
          Mutex.lock s.slock;
          s.points <- [];
          Mutex.unlock s.slock)
        all_series)
