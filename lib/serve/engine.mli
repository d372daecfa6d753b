(** The query engine behind [ephemeral serve].

    Every query op (foremost, arrivals, reach, ecc) is a readout of
    one (instance, source) arrival row, so the row is the unit of
    work, caching, and batching.  Connection threads {!submit}
    (instance, source, deadline) jobs into a {e bounded} admission
    queue.  A dispatch cycle takes the whole queue, groups by
    instance, dedupes sources, and computes missing rows on the global
    {!Exec.Pool} — {!Temporal.Batch.arrival_lanes} sources per
    word-parallel {!Temporal.Batch} sweep on either backend; the lane
    budget keeps a sweep's arrival matrix within max(2^20, n) words,
    so the implicit backend's O(n)-scratch contract holds.

    There is no engine thread: a thread in {!await} whose ticket is
    unanswered runs the next cycle itself when none is running, and
    every other awaiter sleeps until that cycle ends.  One cycle runs
    at a time.

    Robustness contract: submissions past [queue_max] are shed with
    [Resource_exhausted] (never queued — {!stats}[.queue_peak] proves
    the bound); expired jobs answer [Deadline_exceeded], re-checked
    cooperatively before every sweep; store IO is retried with
    deterministic jitter under a wall-time budget and degrades to
    recompute on persistent failure; {!drain} flushes every admitted
    job before returning — no ticket is ever left unanswered.

    Rows are pure functions of (instance labelling, source): replies
    are byte-identical at any job count, batching, or backend. *)

type config = {
  queue_max : int;  (** admission bound (jobs queued, not in flight) *)
  batch_window_s : float;
      (** a cycle's runner sleeps this long before it takes the queue,
          so concurrent clients coalesce; [0.] = none *)
  cache_max : int;  (** in-memory rows kept, LRU eviction; [0] = off *)
  store : Store.Objects.t option;  (** persistent row cache *)
  jitter_seed : int64;  (** retry-jitter decorrelation seed *)
}
(** Each store operation retries within a 0.25 s wall-time budget. *)

val default_config : config
(** queue 256, no window, 4096 rows, no store. *)

type reply =
  | Row of int array
      (** the arrival row, [max_int] = unreachable; shared with the
          cache — do not mutate *)
  | Err of Proto.error_code * string

type ticket
type t

val create : ?config:config -> Corpus.t -> t
(** @raise Invalid_argument if [queue_max < 1] or [cache_max < 0]. *)

type admission = Admitted of ticket | Rejected of Proto.error_code * string

val submit :
  t -> instance:string -> source:int -> ?deadline_s:float -> unit -> admission
(** Admit a row request.  Rejections: [Unknown_instance],
    [Unavailable] (instance failed to load), [Bad_arg] (source out of
    range), [Shutting_down] (drain begun), [Resource_exhausted] (queue
    full).  [deadline_s] is relative; absent or [<= 0.] means none.
    The job is computed once some thread {!await}s or {!drain}s. *)

val await : ticket -> reply
(** Block until the ticket is answered, running dispatch cycles on the
    calling thread whenever none is running.  Every admitted ticket is
    eventually resolved, including through {!drain}. *)

val start : t -> unit
(** Does nothing: cycles run on the threads in {!await}.  Kept only
    for existing callers. *)

val drain : t -> unit
(** Stop admission, wait out a running cycle, then run cycles until
    the queue is empty.  Idempotent. *)

type stats = {
  queries : int;  (** admitted *)
  shed : int;  (** rejected [Resource_exhausted] *)
  expired : int;  (** answered [Deadline_exceeded] *)
  cache_hits : int;
  store_hits : int;
  sweeps : int;  (** kernel sweeps actually run *)
  evictions : int;  (** LRU rows displaced once the cache filled *)
  queue_peak : int;  (** max queue depth ever observed — [<= queue_max] *)
}

val stats : t -> stats
