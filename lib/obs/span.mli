(** Nested span tracing on the monotonic clock, with GC deltas.

    [with_span "trial" f] times [f] and captures how many minor- and
    major-heap words it allocated ([Gc.quick_stat] deltas).  Spans
    nest: a span opened inside another records its full path
    ("e1/trial"), so one instrumentation site in a generic driver
    yields per-caller breakdowns for free.

    {b Domain safety.}  The nesting stack is domain-local
    ([Domain.DLS]), so spans opened concurrently in pool workers nest
    independently; the aggregate table and the handler list are shared
    and mutex-guarded, with handlers invoked under the lock (one
    completed span at a time — the JSONL sink needs no locking of its
    own for ordering).  A pool worker inherits the submitting domain's
    innermost span via {!context}/{!with_context}, so a trial span
    records the same "e1/n=64/trial" path at any job count.

    When {!Control.enabled} is off, [with_span] is [f ()] — one branch,
    no clock read, no allocation.  When on, each closing span feeds the
    in-process aggregate table (read by {!Export}) and every handler
    registered with {!on_record} (the JSONL sink). *)

type record = {
  name : string;  (** full slash-joined path, e.g. ["e1/trial"] *)
  domain : int;  (** id of the domain the span closed on ([Domain.self]) *)
  depth : int;  (** 0 for a root span *)
  start_ns : int64;  (** {!Clock.now} at open *)
  dur_ns : int64;
  minor_words : float;  (** words allocated in the minor heap inside the span *)
  major_words : float;
}

val with_span : string -> (unit -> 'a) -> 'a
(** Exceptions propagate; the span still closes and records. *)

val on_record : (record -> unit) -> unit
(** Register a handler called with each completed span (innermost
    first, since children close before their parent). *)

val clear_handlers : unit -> unit
(** Test support: the telemetry tests detach the {!on_record} handlers
    they install. *)

(** {2 Cross-domain context} *)

val context : unit -> (string * int) option
(** The calling domain's innermost open span as [(path, depth)], or
    [None] outside any span.  Capture it before handing work to
    another domain. *)

val with_context : (string * int) option -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] installed as the ambient
    parent span, so spans opened by [f] extend [ctx]'s path; restores
    the previous stack afterwards.  [with_context None f] is [f ()]. *)

(** {2 Aggregates, accumulated whenever tracing is enabled} *)

type totals = {
  count : int;
  total_ns : int64;
  minor_words : float;
  major_words : float;
}

val totals : unit -> (string * totals) list
(** Per-span-path aggregate over the whole run, sorted by path. *)

val reset : unit -> unit
(** Drop aggregates and the calling domain's dangling nesting state
    (not handlers).

    Test support: the telemetry tests start from empty aggregates, so the
    {!totals} they check were recorded by the code under test. *)
