(** Named metrics: counters, gauges, and log-scale histograms.

    Each kind lives in its own registry keyed by name; [counter],
    [gauge] and [histogram] are get-or-create, so independent call
    sites naming the same metric share one instrument.  Histograms
    bucket geometrically (8 sub-buckets per octave, relative error
    under ~4.5% per readout), so one fixed 512-slot array spans
    nanoseconds to hours with no reallocation on the hot path.

    {b Domain safety.}  Under the hood every domain owns a private
    shard ([Domain.DLS]) of instrument records, so updates
    ([incr]/[add]/[set]/[observe]) are unsynchronized domain-local
    writes; reads ([count], [value], [percentile], {!snapshot}) merge
    all shards — counters and histograms sum, a gauge keeps its most
    recently set value.  Handles are just names with a per-domain
    cache: create them anywhere and use them from any domain,
    including pool workers.

    Registration and updates are always live — cheap enough that the
    on/off decision belongs to the *instrumentation sites* (see
    {!Control}), not to every [incr].  Creating a handle registers the
    instrument immediately (in the creating domain's shard), so a
    declared metric shows up in {!snapshot} before its first update. *)

type counter
type gauge
type histogram

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float
(** Test support: test_obs reads the gauges that {!set} and [Exec.Pool]
    write through it. *)

val histogram : string -> histogram
val observe : histogram -> float -> unit
(** Non-positive values land in the lowest bucket (still counted in
    [count]/min/max exactly). *)

val observations : histogram -> int

val percentile : histogram -> float -> float
(** [percentile h q] with [q] in [0, 1].  Exact at the extremes
    ([q <= 0] is the observed min, [q >= 1] the max); in between,
    geometric-midpoint readout of the bucket holding rank
    [ceil (q * count)].  [nan] on an empty histogram. *)

(** Snapshot of every registered metric, for export. *)

type histo_summary = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type value_snapshot =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histo_summary

val snapshot : unit -> (string * value_snapshot) list
(** All registered metrics merged across domain shards, sorted by name
    (counters, gauges then histograms on a name tie). *)

val reset : unit -> unit
(** Forget every registered metric in every shard (tests and repeated
    in-process runs).

    Test support: the telemetry tests start from an empty registry, so the
    counters and histograms they check were written by the code under
    test. *)
