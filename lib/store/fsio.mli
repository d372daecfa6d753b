(** Crash-safe filesystem primitives for the store layer.

    Everything the store publishes goes through {!write_atomic}
    (write to [<path>.tmp], fsync, [rename]) so a crash at any point
    leaves either the previous file or the new one — never a
    truncated hybrid.  [Sim.Report]'s CSV/Markdown writers use the
    same primitive.

    {b Transient-error handling.}  Both write paths retry transient
    failures ([Sys_error] / [Unix_error]) with capped exponential
    backoff, a handful of attempts total, counting each retry in the
    ["store.io_retries"] counter; only a persistent failure reaches
    the caller.  [Fault.Inject.io_write] is consulted once per attempt
    — an armed chaos plan exercises exactly this machinery, torn
    partial files included.  After a persistent failure, callers for
    whom persistence is only an optimization flip the process-wide
    {!degrade} latch and stop touching the store for the rest of the
    run ({!degraded}); the computation itself continues. *)

val ensure_dir : string -> unit
(** Create a directory and any missing parents ([mkdir -p]). *)

val write_atomic : string -> string -> unit
(** [write_atomic path data]: write [data] to [path ^ ".tmp"], fsync,
    atomically [rename] over [path] (creating parent directories as
    needed), then fsync the parent directory so the publish survives
    power loss.  Raises [Sys_error] on persistent I/O failure, after
    removing the temporary file and exhausting retries. *)

val append_line : string -> string -> unit
(** [append_line path line]: append [line ^ "\n"] in [O_APPEND] mode
    and fsync (plus a parent-directory fsync when the append creates
    the file).  Used for the JSONL manifest; a crash mid-append leaves
    at most one malformed final line, which readers skip (and count,
    see ["store.manifest_torn"]).  Retries as {!write_atomic} does; a
    retry after a torn attempt first terminates the partial line. *)

val degraded : unit -> bool
(** Whether the store has been switched off for the rest of the run. *)

val degrade : what:string -> unit
(** Latch {!degraded} (idempotent).  The first call warns on stderr
    and bumps ["store.degraded"]. *)

val reset_degraded : unit -> unit
(** Clear the latch (tests).

    Test support: clears the latch that the fault-armed test_fault cases
    set through the degradation paths they check. *)

val read_file : string -> string option
(** Whole-file read; [None] if the file cannot be opened. *)

val remove_if_exists : string -> unit

val remove_tree : string -> unit
(** Recursive best-effort delete of a file or directory. *)
