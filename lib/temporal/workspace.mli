(** Per-domain reusable scratch for the temporal kernels.

    [get ~n] returns the calling domain's workspace with every scalar
    array grown to at least [n] entries; [get_batch ~n ~lanes]
    additionally grows the batch-kernel slots.  Contents are {e not}
    cleared — each borrowing kernel initialises the prefix it uses —
    and remain valid only until the next kernel on the same domain
    borrows the same slot.  Results that escape (public [run]
    functions returning records) must copy; the borrowed entry points
    ({!Foremost.arrivals_borrowed}, {!Batch.sweep},
    {!Sgraph.Traverse.bfs_into} call sites) are the ones that avoid
    the copy.

    Slot discipline (who may hold what simultaneously):
    - [arrival]/[pred]: the foremost-sweep family (foremost, flooding,
      reverse-foremost style kernels);
    - [dist]/[queue]: static BFS;
    - [lane_*]: the bit-parallel batch sweep ({!Batch}).

    A kernel may therefore run one temporal sweep (scalar {e or}
    batched) and one static BFS concurrently on the same domain (as
    [Reachability] does), but never two temporal sweeps whose results
    it still needs.

    {b Batch-slot capacities are in words.}  The bitset slots hold one
    lane-mask word per vertex and the arrival matrix [lanes] words per
    vertex; each slot is grown to the next power of two of its own
    {e word} count (never [pow2 vertices * lanes], which is not a
    power of two).  The dirty stack has one spare word beyond the
    bitset capacity.  Growths increment the per-domain
    ["kernel.workspace_growths"] counter exactly like the scalar
    slots — each domain grows on its own schedule, so run ledgers file
    the counter under the volatile section. *)

type t = {
  mutable arrival : int array;
  mutable pred : int array;
  mutable dist : int array;
  mutable queue : int array;
  mutable lane_reached : int array;
      (** per-vertex bitmask of lanes that reached the vertex *)
  mutable lane_delta : int array;
      (** per-vertex new bits accumulated in the current label group *)
  mutable lane_dirty : int array;
      (** stack of vertices touched in the current label group, one
          word longer than the bitset slots: the batch scan writes
          the slot above the top on every arc *)
  mutable lane_arrival : int array;
      (** lane-strided arrival matrix: entry [v * lanes + lane] *)
  mutable lane_counts : int array;  (** per-lane reached-vertex counts *)
  mutable lane_ecc : int array;  (** per-lane saturation labels *)
}

val get : n:int -> t
(** The calling domain's workspace, with the four scalar arrays of
    length >= [n].  Keyed off [Domain.DLS], so [Exec.Pool] worker
    domains each get their own.
    @raise Invalid_argument if [n < 0]. *)

val get_batch : n:int -> lanes:int -> t
(** Like {!get} but growing the batch slots instead: bitset slots to
    at least [n] words, the arrival matrix to at least [n * lanes]
    words (both rounded to a power of two of the word count), the
    dirty stack to one word more than the bitset slots, and the
    per-lane vectors to the full word width.  Scalar
    slots are left untouched — batch users that also need a static
    BFS call {!get} separately.
    @raise Invalid_argument if [n < 0] or [lanes < 1]. *)

val get_batch_planes : n:int -> t
(** Like {!get_batch} but for arrival-free batch kernels
    ({!Batch.sweep_diameter}, {!Batch.sweep_reach}): grows the n-word
    bitset planes and the per-lane vectors, {e never} the [n * lanes]
    arrival matrix.  The sizing contract of the implicit backend — no
    temporal kernel scratch exceeds O(n) words on networks whose
    labels are derived on demand.
    @raise Invalid_argument if [n < 0]. *)
