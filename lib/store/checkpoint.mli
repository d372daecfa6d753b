(** Incremental trial-chunk checkpointing with crash-safe resume.

    [Sim.Runner.map] persists completed chunks of trial results as
    they finish (when a context is active) and, in a restarted run,
    loads them back and executes only the missing trial indices.
    This is sound because each trial's RNG stream is pre-split and
    position-independent (the PR 2 determinism contract): a loaded
    value is bit-identical to the value recomputation would produce.

    A context is keyed by the experiment's store key — which embeds
    the build-time code fingerprint — so a different seed, scale or
    binary never resumes from stale chunks.  Chunk files are written
    atomically and carry a magic header, bounds, length prefix and
    CRC-32; malformed ones load as [None] (and are removed), which
    just means those trials recompute.

    The context is process-global and consulted only by top-level
    (non-nested) [Runner.map] calls, whose sequence is deterministic:
    slot [k] in the resumed run is the same map call as slot [k] in
    the interrupted one. *)

val activate : dir:string -> run_key:string -> unit
(** Arm checkpointing under [<dir>/checkpoints/<run_key>/], resetting
    the call counter.  [dir] is the store directory. *)

val deactivate : unit -> unit
val active : unit -> bool
(** Test support: test_store checks through it that no context is active
    before {!activate}, when {!next_slot} hands out none. *)

type slot
(** One top-level [Runner.map] call within an active context. *)

val next_slot : trials:int -> slot option
(** Claim the next call slot; [None] when no context is active.  Must
    be called exactly once per top-level map call, in execution order
    (which is deterministic for a fixed experiment). *)

val chunk_size : trials:int -> int
(** Deterministic function of [trials] only (≤ 16 chunks per call),
    so chunk bounds agree at every [--jobs] value and across the
    interrupted/resumed pair. *)

val save_chunk : slot -> lo:int -> hi:int -> 'a array -> unit
(** Persist the results of trials [\[lo, hi)] atomically.  Wrapped in
    an Obs span (["ckpt.save"]) and counted when telemetry is on; a
    value [Marshal] cannot serialize is skipped silently (that chunk
    is simply not resumable). *)

val load_chunk : slot -> lo:int -> hi:int -> 'a array option
(** The persisted results of trials [\[lo, hi)], or [None] if absent,
    truncated, bit-flipped or stale (such files are deleted so the
    trials recompute).  Wrapped in an Obs span (["ckpt.load"]). *)

val clean : dir:string -> run_key:string -> unit
(** Drop a run's checkpoint directory (called after its outcome is
    complete). *)

val pending_chunks : dir:string -> run_key:string -> int
(** How many chunk files a run has on disk (0 if none).

    Test support: test_store counts through it the chunk files
    {!save_chunk} writes and a corrupt {!load_chunk} deletes. *)
