(** Versioned, dependency-free binary serialization for stored results.

    Every encoded object is one self-describing record: a magic header
    (["EPHS"]), a format-version byte, a kind byte, a length-prefixed
    payload and a trailing CRC-32 over everything before it.  Decoding
    verifies all five, so a stale, truncated or bit-flipped object is
    {e rejected} with an [Error] — callers treat that as a cache miss —
    never misparsed.

    Floats travel as IEEE-754 bit patterns: NaN payloads, infinities
    and signed zeros round-trip exactly, which is what makes a decoded
    table render (ASCII, CSV, Markdown) byte-identically to the
    original. *)

val magic : string
(** ["EPHS"]. *)

val format_version : int
(** Bumped on any incompatible layout change; old objects then decode
    to [Error _] and are repopulated. *)

type outcome = {
  tables : Stats.Table.t list;
  notes : string list;
  plots : string list;
}
(** Structural mirror of [Sim.Outcome.t] (the store cannot depend on
    [sim], which sits above it); [Sim.Cache] converts. *)

val encode_outcome : outcome -> string
val decode_outcome : string -> (outcome, string) result
