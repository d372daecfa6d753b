(** Trial execution with reproducible randomness.

    Each trial gets its *own* stream split off the experiment's root
    stream, so trial [i] sees identical randomness no matter what other
    trials consumed — results are stable under reordering, sub-sampling
    and parallel execution.

    {b Parallelism and determinism.}  [map], [collect], [summarize] and
    [count] run trials on the process-wide domain pool
    ({!Exec.Pool.global}, sized by [--jobs] / [EPHEMERAL_JOBS]).  All
    per-trial streams are pre-split with [Rng.split_n] — the exact
    splits a sequential loop would draw — and results are gathered in
    trial-index order before any reduction, so output is byte-identical
    at every job count, including [--jobs 1].  [foreach] alone stays
    sequential in the calling domain: its callback is free to mutate
    shared caller state.

    {b Checkpointing and resume.}  When a {!Store.Checkpoint} context
    is active ([ephemeral run --resume]), each top-level [map] call
    claims a checkpoint slot and resumes against it by itself: trials
    execute in chunks whose bounds depend only on [trials], finished
    chunks are persisted as they complete, and chunks already on disk
    are loaded instead of recomputed.  Loading is sound because of the
    determinism contract — the persisted value is bit-identical to
    what recomputation would produce — so an interrupted-then-resumed
    run renders byte-identically to an uninterrupted one, at any job
    count.  Nested [map] calls (inside a pool task) never claim slots.

    {b Supervision.}  When {!Supervise.active} (a non-default config
    or an armed {!Fault.Plan}), every trial runs through
    [Supervise.run_trial]: bounded retries, per-attempt timeout,
    per-run deadline — each attempt against a fresh [Rng.copy] of the
    trial's pre-split stream, so a retried run stays byte-identical at
    any job count.  A trial that exhausts retries either aborts the
    map with {!Supervise.Trial_failed} (raised in the calling domain,
    for the first failed trial in index order) or, under
    [keep_going], is dropped: the map returns the surviving values in
    trial order and records the failures for [Report] to flag.  Under
    a checkpoint context, only chunks with every trial [Ok] are
    persisted — a saved chunk is replayed as plain values later, so
    failures never enter one.

    When [Obs.Control.enabled], every {e executed} trial additionally
    runs inside an [Obs.Span] named ["trial"] (nested under the
    enclosing experiment's span, even on pool workers) and increments
    the ["sim.trials"] counter; trials loaded from a checkpoint touch
    neither.  Instrumentation never touches the RNG stream, so traced
    and untraced runs produce identical results. *)

val map : Prng.Rng.t -> trials:int -> (int -> Prng.Rng.t -> 'a) -> 'a array
(** [map rng ~trials f] evaluates [f i rng_i] for [i = 0 .. trials-1]
    on the domain pool and returns the results in index order.  [f]
    must not mutate shared state (beyond Obs instrumentation, which is
    domain-safe). *)

val foreach : Prng.Rng.t -> trials:int -> (int -> Prng.Rng.t -> unit) -> unit
(** [foreach rng ~trials f] runs [f i rng_i] for [i = 0 .. trials-1],
    sequentially, in the calling domain.  Unsupervised: its closures
    may mutate caller state, so a retry after a partial mutation would
    be unsound — fault plans target [map]-based experiments. *)

val collect : Prng.Rng.t -> trials:int -> (Prng.Rng.t -> 'a) -> 'a list
(** Test support: test_sim and test_obs check {!map}'s per-trial streams
    and order through it. *)

val summarize : Prng.Rng.t -> trials:int -> (Prng.Rng.t -> float) -> Stats.Summary.t
(** Trials run in parallel; the summary is folded sequentially in
    trial order, so even float accumulation matches a sequential run
    bit for bit.

    Test support: test_sim and test_obs check {!map}'s trial count and its
    telemetry switch through it. *)

val count : Prng.Rng.t -> trials:int -> (Prng.Rng.t -> bool) -> int
(** Number of trials returning [true]. *)
