(** Trace sinks: span records out of the process.

    The JSONL sink writes one JSON object per completed span, one per
    line — schema v2, documented in README.md ("Observability"):

    {v
    {"name":"e1/trial","domain":0,"depth":1,"start_ns":123,"dur_ns":456,
     "minor_words":7890,"major_words":0}
    v}

    ("domain" is the id of the domain the span closed on; v1 traces
    lack the field and {!Reader} still accepts them.)

    Writes are mutex-guarded whole lines, so spans closing on pool
    worker domains interleave per record, never mid-line.  An [emit]
    that races a {!close} (spans closing on workers during a SIGINT
    publish) is a guarded no-op, counted under the
    [obs.sink_dropped] metric.

    Publication is atomic: lines stream into [<path>.tmp] and {!close}
    fsyncs then renames onto [path], so an interrupted run never
    leaves a truncated trace at the advertised path. *)

type t

val open_jsonl : string -> t
(** Open [path ^ ".tmp"] for writing; the trace appears at [path]
    when {!close} renames it into place. *)

val attach : t -> unit
(** Subscribe the sink to {!Span.on_record}. *)

val close : t -> unit
(** Flush, fsync, close and atomically publish at the path given to
    {!open_jsonl}; idempotent.  Does not unsubscribe — use
    {!Span.clear_handlers} when reconfiguring in-process. *)

(** Serialization, exposed for tests. *)

val json_escape : string -> string
(** Escape a string for inclusion inside a JSON string literal
    (backslash, double quote, and control characters). *)

val record_to_json : Span.record -> string
(** One JSON object, no trailing newline. *)
