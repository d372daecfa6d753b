(** Shard-worker process management for the sharded {!Router}.

    A shard worker is the running binary re-exec'd with the router's
    own argv plus [--shard-index K]: it loads only its
    {!Corpus.shard_of} partition of the manifest and listens on a
    private socket.  Readiness is probed with PING — shards never
    announce on stdout, so the router's READY line stays the only
    one. *)

val path : string -> int -> string
(** [path base k] = ["<base>.shard-<k>"]: shard [k]'s private socket
    from the router's public socket path, and its ledger from the
    merged-ledger path. *)

val spawn : string array -> int
(** [create_process argv.(0) argv] with inherited stdio; returns the
    pid.  Raises on exec failure (missing binary). *)

val wait_ready : ?timeout_s:float -> string -> (unit, string) result
(** Poll PING on a shard socket until it answers or the window
    closes. *)

val poll_exit : int -> Unix.process_status option
(** Non-blocking reap: [None] while the child runs.  [ECHILD] (already
    reaped) counts as exited. *)

val terminate : ?timeout_s:float -> int -> Unix.process_status
(** SIGTERM, wait up to [timeout_s] for the graceful drain, then
    SIGKILL.  The caller must be the only reaper of this pid. *)
