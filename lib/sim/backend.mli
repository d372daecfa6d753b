(** Process-wide choice of temporal-instance representation.

    [Dense] stores per-edge label arrays and the full counting-sorted
    time-edge stream; [Implicit] keeps only [(seed, topology, a, r)]
    and recomputes labels on demand behind a lazy prefix stream
    ({!Temporal.Tgraph.of_derived}).  For the same seed the two
    realise label-identical instances, so every statistic agrees
    byte-for-byte — the backend trades memory and time, never
    numbers.

    Set once from the CLI before experiments run.  The mode (via
    {!tag}) is folded into store cache keys and recorded in the run
    ledger, so cached outcomes never cross backends. *)

type t = Dense | Implicit

val set : t -> unit
val current : unit -> t

val to_string : t -> string
(** ["dense"] / ["implicit"]. *)

val all : t list

val xl_enabled : unit -> bool
(** True when [EPHEMERAL_IMPLICIT_XL] is set (to anything but ["0"] or
    empty): e23 then adds its sampled [n = 10^6] row — an opt-in
    costing hours of label rolls. *)

val tag : unit -> string
(** The cache-key / ledger spelling of the active mode: {!to_string}
    of {!current}, with ["+xl"] appended when {!xl_enabled}. *)
