(** Breadth- and depth-first traversal. *)

val unreachable : int
(** Sentinel distance for unreachable vertices ([max_int]). *)

val bfs : Graph.t -> int -> int array
(** [bfs g s] is the array of hop distances from [s] along traversable
    arcs; {!unreachable} where no path exists. *)

val bfs_into : Graph.t -> int -> dist:int array -> queue:int array -> unit
(** Allocation-free [bfs] into caller-owned scratch: [dist] and [queue]
    must each hold at least [n g] entries; on return [dist.(0 .. n-1)]
    holds the hop distances (entries beyond [n] are untouched) and
    [queue]'s contents are meaningless.  The workhorse behind repeated
    per-source sweeps that reuse one pair of arrays.
    @raise Invalid_argument on a bad source. *)

val bfs_tree : Graph.t -> int -> int array * int array
(** [bfs_tree g s] is [(dist, parent)]; [parent.(v) = -1] for [s] and for
    unreachable vertices. *)

