(** A process-global metrics registry: monotonic counters, gauges,
    histograms and ordered (x, y) series.

    Handles are get-or-create by name, so instrumented modules and
    their observers agree on metrics without threading state through
    APIs.  Every mutation is gated on {!Config.enabled}: with
    collection off an increment is a boolean test and nothing more,
    and all values read back as zero/empty.  {!reset} zeroes values
    but keeps registrations, so handles held by instrumented code
    never go stale.

    Every operation is domain safe: counters and gauges are atomics,
    histograms and series take a per-metric mutex, and get-or-create
    itself is serialised — a [--jobs N] solve incrementing a counter
    from several domains (or the background {!Sampler} pushing series
    points while a solve runs) loses no updates and never observes a
    torn registry.  Counter totals under parallel execution therefore
    equal the sequential totals exactly. *)

type counter
type gauge
type histogram
type series

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val set_max : gauge -> float -> unit
(** [set_max g v] raises [g] to [v] if [v] is larger — an atomic
    high-water mark, safe against concurrent writers. *)

val histogram : string -> histogram
val observe : histogram -> float -> unit

type histogram_stats = {
  count : int;
  sum : float;
  min : float;  (** 0 when empty *)
  max : float;
  mean : float;
}

val histogram_stats : histogram -> histogram_stats

val series : string -> series
val push : series -> x:float -> y:float -> unit
(** Append a point, e.g. (iteration, residual) along a solve. *)

val series_points : series -> (float * float) list

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_stats) list;
  series_data : (string * (float * float) list) list;
}

val snapshot : unit -> snapshot
(** Every registered metric, each kind in registration order. *)

val scalar_snapshot : unit -> snapshot
(** Counters and gauges as {!snapshot} reports them, with histograms and
    series left empty.  The bracket to use around {!diff_snapshots},
    which reads only those two kinds: its cost is independent of how
    many series points the process has accumulated. *)

val diff_snapshots : snapshot -> snapshot -> snapshot
(** [diff_snapshots before after] scopes the registry to one unit of
    work bracketed by two {!scalar_snapshot} (or {!snapshot}) calls:
    counters are the per-counter difference [after - before] (clamped
    at zero; counters that did not move are dropped), gauges are
    [after]'s values for gauges that changed, and histograms/series —
    whose per-window
    semantics are not subtractive — are empty.  A long-running process
    (the daemon) uses this to attribute counter increments to one
    request without {!reset}ting the cumulative totals its live
    metrics endpoint exports.  Exact when the bracketed work is the
    only mutator; concurrent mutators are attributed to whichever
    window observes them. *)

val reset : unit -> unit
