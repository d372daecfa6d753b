(** The sharded [ephemeral serve --shards N] parent process: a
    {!Server.handler} in front of N supervised shard workers.

    Query frames are routed by {!Proto.peek_instance} +
    {!Corpus.shard_of} and their request/reply bytes cross the router
    untouched, so reply byte-identity at any shard count is
    structural.  {!Server} answers the control plane from this
    handler's rows — a startup snapshot of every shard's LIST merged
    back into manifest order — and tallies, the sum of the live
    shards' STATS; it decodes unroutable frames itself, so their error
    bytes match a single process.

    A supervisor thread reaps crashed shards and respawns them with
    {!Fault.Retry.backoff_delay} under a bounded budget; requests to a
    down shard answer typed [Unavailable].  With
    {!Fault.Plan.t.shard_kill} positive it SIGKILLs live shards on
    deterministic rolls — the chaos soak's crash-respawn site.

    Graceful drain cascades SIGTERM to the shards and publishes one
    merged ledger whose deterministic section is byte-identical at any
    shard count. *)

type config = {
  server : Server.config;  (** the public listener; a Unix socket *)
  shards : int;
  shard_argv : int -> string array;
      (** argv to (re)spawn shard [k] — the running binary with
          [--shard-index k]; shard [k] listens on
          [Shard.path public k] *)
  queue_max : int;  (** the shards' admission bound, for the ledger *)
  manifest_ids : string list;
      (** {!Corpus.manifest_ids} of the full manifest, for the LIST
          merge *)
  backend : Sim.Backend.t;
  fault : Fault.Plan.t;
}

val run : config -> (unit, string) result
(** Spawn and await the shards, serve until the graceful-shutdown
    signal, drain, and return.  [Error] only for startup failures
    (a shard that never became ready, an unbindable socket) — already
    spawned shards are terminated before returning.
    @raise Invalid_argument if [shards < 1] or the address is TCP. *)

(**/**)

(* Exposed for tests. *)
val merge_list_rows :
  manifest_ids:string list ->
  (string * string * string) list list ->
  (string * string * string) list
