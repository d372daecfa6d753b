(** Whole-experiment outcome caching on top of [lib/store].

    Keys pin experiment id, seed, quick flag and the build-time code
    fingerprint; values are [Store.Codec]-encoded outcomes.  Because
    experiments are byte-deterministic in exactly those inputs, a hit
    renders identically to a fresh run.  Served by
    [ephemeral run --cache]. *)

val key : Experiments.t -> seed:int -> quick:bool -> string
(** The store key — also the checkpoint run key for [--resume]. *)

val get : Store.Objects.t -> Experiments.t -> seed:int -> quick:bool -> Outcome.t option
(** Decode the cached outcome, if any.  A stale or corrupt object is
    quarantined and read as a miss.  Bumps ["store.hits"] /
    ["store.misses"] when telemetry is on. *)

val put : Store.Objects.t -> Experiments.t -> seed:int -> quick:bool -> Outcome.t -> unit

val of_codec : Store.Codec.outcome -> Outcome.t
