(** The corpus a server loads at startup: named temporal instances
    described by one compact spec per manifest line,

    {[ id=clq1k,family=clique,n=1024,a=1024,r=1,seed=7 ]}

    ([id], [family], [n] required; [a] defaults to [n], [r] to [1],
    [seed] to [1]).  The realised instance is the experiment
    pipeline's: topology from {!Sim.Family.build} on either backend,
    labels the derived draws of {!Temporal.Tgraph.of_derived} — so
    dense and implicit backends serve label-identical instances and
    replies byte-compare across backends.

    Loading is degraded-tolerant: a malformed line or a build failure
    yields a [Failed] instance the server answers [Unavailable] for,
    while healthy instances serve normally. *)

type spec = {
  id : string;
  family : Sim.Family.t;
  n : int;
  a : int;  (** lifetime *)
  r : int;  (** label draws per edge *)
  seed : int;
}

type status = Available of Temporal.Tgraph.t | Failed of string

type instance = {
  spec_id : string;
  spec : spec option;  (** [None] when the line didn't even parse *)
  status : status;
}

type t

val parse_spec : string -> (spec, string) result
val spec_to_string : spec -> string

val shard_of : shards:int -> string -> int
(** Which shard owns an instance id: FNV-1a 64-bit of the id mod
    [shards].  Pure, so router and shard workers agree from the id
    alone; [shards <= 1] always answers [0]. *)

val manifest_ids : string list -> string list
(** The ids of every non-comment manifest line, in order, without
    building anything — parsed ids where the line parses, salvaged
    ids where it does not.  Exactly the ids {!load} would serve. *)

val load : ?shard:int * int -> backend:Sim.Backend.t -> string list -> t
(** Build every non-comment line ([#] and blank lines are skipped);
    failures become [Failed] instances, never exceptions.
    [?shard:(index, total)] keeps only the lines whose (post-salvage)
    id satisfies [shard_of ~shards:total id = index], deciding
    ownership {e before} building — a shard pays nothing for lines it
    does not own.  An empty partition is a valid (unhealthy) corpus. *)

val backend : t -> Sim.Backend.t
val find : t -> string -> instance option
val instances : t -> instance list

val available : t -> (string * Temporal.Tgraph.t) list
(** Healthy instances in manifest order. *)

val healthy : t -> bool
(** Is at least one instance available? *)

val list_rows : t -> (string * string * string) list
(** [(id, "available"|"failed", detail)] rows for the LIST reply, in
    manifest order. *)
