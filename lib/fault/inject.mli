(** The armed fault plan and its injection sites.

    Production code calls the site hooks unconditionally; with no plan
    armed each is one atomic load and a branch.  With a plan armed,
    every decision is a deterministic {!Plan.roll} on coordinates
    identifying the operation, so the fault pattern is independent of
    job count and execution order.

    Every injection bumps the ["faults.injected"] counter plus a
    per-site one (["faults.trial"], ["faults.delay"], ["faults.io"],
    ["faults.poison"]) — always, not only under [Obs.Control], so
    chaos runs can report them without [--metrics]. *)

exception Injected of { site : string; retryable : bool }
(** Raised by injection sites.  [retryable] tells the supervisor
    whether a bounded retry may clear it ([Plan.fatal] rolls decide). *)

val arm : Plan.t -> unit
(** Make [plan] the armed plan.  A plan with every rate 0 disarms. *)

val disarm : unit -> unit

val armed : unit -> bool

val before_trial : trial:int -> attempt:int -> unit
(** Trial-site hook, called before attempt [attempt] of trial [trial]:
    may sleep ([Plan.delay]) and may raise {!Injected}
    ([Plan.trial] / [Plan.fatal]). *)

type io_decision =
  | Io_ok
  | Io_error of { message : string; torn : bool }
      (** Fail this write attempt with a [Sys_error]-style message;
          [torn] additionally asks the caller to leave a partial file
          behind, as a crash mid-write would. *)

val io_write : path:string -> attempt:int -> io_decision
(** IO-site hook, rolled on (hash of [path], [attempt]) — so a retry
    of the same write re-rolls and a transient error clears. *)

val poison_worker : worker:int -> generation:int -> bool
(** Pool-site hook: whether worker [worker] refuses the task of
    generation [generation].  A poisoned worker contributes nothing to
    that task; correctness is preserved because the remaining domains
    (at minimum the caller) drain the queue. *)
