(** Strict JSONL trace parsing — the inverse of {!Sink.record_to_json}.

    [parse (Sink.record_to_json r) = Ok r] for every record (the
    round-trip property, QCheck-tested).  The parser is deliberately
    strict: every field exactly once, with the right JSON type,
    nothing after the closing brace — a truncated, garbled or
    foreign line is an [Error], never silently dropped data.

    Two schemas are accepted: v2 lines carry the emitting ["domain"]
    id; v1 lines (written before PR 6) lack it and read back with
    [domain = -1]. *)

type error = { line : int; message : string }
(** [line] is 1-based; 0 means the file could not be opened. *)

val parse : string -> (Span.record, string) result
(** Parse one trace line (no trailing newline). *)

val read_file : string -> (Span.record list, error) result
(** All records of a trace file, in file order. *)
