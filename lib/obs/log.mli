(** Operator-facing warnings on stderr.

    Tables and traces go to stdout / the sink; warnings about degraded
    behaviour go here.  [warn_once] deduplicates by key so a warning
    fired from a per-trial or per-write path appears exactly once per
    process, however many times the path runs. *)

val warn_once : string -> ('a, unit, string, unit) format4 -> 'a
(** [warn_once key fmt ...]: one "warning: ..." line on stderr, flushed,
    for the first call per [key] (per process) only.  Domain-safe. *)
