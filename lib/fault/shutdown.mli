(** Graceful termination on SIGINT/SIGTERM.

    {!install} replaces both handlers with one that runs every
    registered hook (LIFO, exceptions swallowed, at most once per
    process) and then [exit]s with the conventional [128 + signal]
    status — so [at_exit] cleanups (the domain pool) still run.  The
    CLI registers the trace-sink close here, which publishes the
    JSONL file atomically; checkpoint chunks need no hook because each
    is durable the moment it is written.

    A hook registered {e after} the hooks have already run (the
    register-during-drain race) is executed immediately in the
    registering thread, preserving the exactly-once guarantee. *)

val install : unit -> unit
(** Install the SIGINT and SIGTERM handlers. *)

val on_shutdown : (unit -> unit) -> unit
(** Register a cleanup hook.  Hooks run LIFO.  If the hooks have
    already run (a signal or {!run_hooks} beat the registration), [f]
    runs immediately — exactly once either way. *)

val set_graceful : (int -> unit) -> unit
(** Arm a graceful-drain callback for long-lived processes (the serve
    loop).  The {e first} signal invokes it instead of exiting — the
    callback must promptly initiate a clean shutdown (it runs in
    signal-handler context: flip atomics and close descriptors only,
    take no locks) after which the process exits normally, typically
    with status 0.  The callback is disarmed once consumed, so a
    second signal takes the immediate run-hooks-and-exit path — the
    escape hatch against a wedged drain. *)

val run_hooks : unit -> unit
(** Run the hooks now (idempotent; later signals find nothing left).
    Exposed for tests and for explicit early teardown. *)

val reset : unit -> unit
(** Drop all hooks, disarm any graceful callback and re-enable running
    (tests).

    Test support: clears the process-wide registry between the test_fault
    and test_serve cases that check {!on_shutdown}, {!set_graceful} and
    {!run_hooks}. *)
