(** Shared renderer for the [ephemeral-serve-ledger] artifact, and the
    STATS text codec.

    The ledger has a [deterministic] section — a pure function of the
    corpus manifest, backend, and queue bound, byte-identical run to
    run and {e at any shard count} — and a [volatile] section of
    traffic tallies and timings.  {!Server} writes it at drain from
    its handler's final tallies — {!of_stats} of the local engine, or
    the {!merge_volatile} sum of the shards' STATS — so every
    downstream check (schema tag, [queue_peak] bound, CI
    deterministic-section diff) is shard-count-agnostic. *)

type volatile = {
  queries : int;
  shed : int;
  expired : int;
  cache_hits : int;
  store_hits : int;
  sweeps : int;
  evictions : int;
  queue_peak : int;  (** merged across shards with [max], not [+] *)
  p50_ms : float;
  p99_ms : float;
  qps : float;
  wall_s : float;
  shards : int option;  (** [None] = single-process serve *)
}

val of_stats : Engine.stats -> volatile
(** One engine's tallies; timings zero, [shards = None]. *)

val merge_volatile : volatile list -> shards:int -> volatile
(** Sum tallies and [max] the queue peaks.  Timings stay zero:
    per-shard percentiles do not compose, so the front end fills them
    in from its own end-to-end histogram when it writes the ledger. *)

val render_stats_text : volatile -> string
(** The STATS reply text, e.g. ["queries=12 shed=0 ... queue_peak=3"]. *)

val parse_stats_text : string -> volatile option
(** Inverse of {!render_stats_text} on the tallies (timings zero);
    [None] when no [k=<int>] field parses. *)

val render :
  backend:string ->
  queue_max:int ->
  instances:(string * string * string) list ->
  volatile ->
  string
(** The full ledger document, trailing newline included.  [instances]
    is {!Corpus.list_rows} output in manifest order. *)
