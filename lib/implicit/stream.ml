module Graph = Sgraph.Graph
module Cells = Prng.Cells

(* A time-edge stream materialized lazily as a label-bounded *prefix*.
   A view with [bound = B] holds exactly the arcs whose label is <= B,
   in the same order the eager counting-sorted stream would hold them:
   label ascending, ties in emission order (edge id ascending, u->v
   before v->u).  Because the sort is stable and the emission order is
   fixed, the view for bound B is a byte prefix of the view for bound
   2B — both its [arcs] and its [off] — so kernels that exhaust a view
   keep their stream indices (arrival predecessors, scan positions) and
   continue exactly where they stopped after an {!extend}.

   Two sources feed the bands.  A [Derived] stream re-rolls its labels
   from [Labels] on every band pass, buffers the band's arcs and
   counting-sorts them.  A [Stored] stream reads its labels from
   two-byte cells, one per edge ([Prng.Cells]).  Its first band may
   come with a list of the edges in it, made by whoever drew or
   validated the labels, so the first band is placed from the list
   alone; any other band pass counts the whole stream's group offsets
   first, once, and then writes each arc straight to its final slot.

   On the normalized U-RTN clique the temporal diameter is
   Theta(log n), so sweeps only ever consume labels up to O(log n) out
   of a lifetime of n: the prefix holds ~ m * B / a arcs — O(n log n)
   for the clique — while the whole stream would hold all m * r.  For
   a derived source that ratio bounds the memory; for a stored one it
   bounds the arcs a trial places.

   Concurrency: views are immutable and published through an [Atomic]
   (release/acquire), so readers never lock.  Builders serialize on a
   mutex and re-check the published bound before building, so each step
   of the deterministic bound schedule (B0, 2*B0, ... capped at the
   lifetime) is built exactly once per instance no matter how many
   domains race — keeping the [implicit.label_rolls] probe identical at
   any [--jobs]. *)

(* The layout, decided here for both backends: one word per arc,
   [(src lsl arc_shift) lor dst], grouped by label.  Both endpoints
   take [arc_shift] bits, so a graph may have at most [2^arc_shift]
   vertices. *)
let arc_shift = Sys.int_size / 2
let arc_mask = (1 lsl arc_shift) - 1
let pack u v = (u lsl arc_shift) lor v
let arc_src a = a lsr arc_shift
let arc_dst a = a land arc_mask

let check_vertices name g =
  if Graph.n g > 1 lsl arc_shift then
    invalid_arg
      (Printf.sprintf "%s: more than 2^%d vertices do not fit a packed arc" name
         arc_shift)

type view = {
  bound : int;  (* every arc with label <= bound is present *)
  complete : bool;  (* bound >= lifetime: this is the whole stream *)
  arcs : int array;
  off : int array;
      (* bound + 2 words; label l is arcs.(off.(l) .. off.(l+1) - 1) *)
}

(* The largest [l] with [off.(l) <= i]: label groups are contiguous and
   [off] is non-decreasing, so a binary search over [1 .. bound]. *)
let label_at v i =
  if i < 0 || i >= Array.length v.arcs then
    invalid_arg "Implicit.Stream.label_at: index outside the view";
  let lo = ref 1 and hi = ref v.bound in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if v.off.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

type source =
  | Derived of Labels.t
  | Stored of {
      label : Cells.t;  (* one label per edge *)
      mutable first : (int array * int) option;
          (* the ascending ids of the edges in the first band, until a
             band is placed *)
      mutable off : int array;
          (* the whole stream's [lifetime + 2] offsets once a band pass
             has counted them, [[||]] before *)
      mutable counts : int;  (* how often [off] was counted: 0 or 1 *)
    }

type t = {
  graph : Graph.t;
  source : source;
  lifetime : int;
  initial_bound : int;
  cur : view Atomic.t;
  lock : Mutex.t;
}

let default_initial_bound = 64

(* A first band holds about [m * 64 / lifetime] of the [m] edges.  The
   list is kept only when that is at most an eighth, so a reader of the
   whole stream, which never uses it, pays for at most [m / 8]
   positions; below that lifetime the first band is a large share of
   the stream and one pass over the labels places it about as fast. *)
let list_bound ~lifetime =
  if lifetime >= 8 * default_initial_bound then default_initial_bound else 0

let make name graph source ~lifetime =
  check_vertices name graph;
  if lifetime < 1 then invalid_arg (name ^ ": lifetime < 1");
  {
    graph;
    source;
    lifetime;
    initial_bound = Stdlib.min lifetime default_initial_bound;
    cur =
      Atomic.make { bound = 0; complete = false; arcs = [||]; off = [| 0; 0 |] };
    lock = Mutex.create ();
  }

let derived graph ~labels ~lifetime =
  make "Implicit.Stream.derived" graph (Derived labels) ~lifetime

let stored graph ~label ~first ~lifetime =
  if Cells.length label <> Graph.m graph then
    invalid_arg "Implicit.Stream.stored: one label per edge required";
  (match first with
  | None -> ()
  | Some (pos, len) ->
    if list_bound ~lifetime = 0 then
      invalid_arg "Implicit.Stream.stored: no first-band list at this lifetime";
    if len < 0 || len > Array.length pos then
      invalid_arg "Implicit.Stream.stored: list length");
  make "Implicit.Stream.stored" graph
    (Stored { label; first; off = [||]; counts = 0 })
    ~lifetime

let view t = Atomic.get t.cur

let group_starts off ~lo ~hi =
  for l = lo + 1 to hi do
    off.(l + 1) <- off.(l + 1) + off.(l)
  done

let directions t = if Graph.is_directed t.graph then 1 else 2

(* Growable (arc, label) buffer for one collect pass. *)
type buf = {
  mutable len : int;
  mutable arc : int array;
  mutable lab : int array;
}

let buf_push b a l =
  if b.len = Array.length b.arc then begin
    let grow x =
      let y = Array.make (Stdlib.max 1024 (2 * b.len)) 0 in
      Array.blit x 0 y 0 b.len;
      y
    in
    b.arc <- grow b.arc;
    b.lab <- grow b.lab
  end;
  b.arc.(b.len) <- a;
  b.lab.(b.len) <- l;
  b.len <- b.len + 1

(* A derived band: one roll pass over all edges, keeping arcs with
   lo < label <= hi in emission order, then a stable counting sort by
   label appended onto [prev]'s arrays.  All labels in the band exceed
   [prev.bound], so old arcs + sorted band is exactly the stream prefix
   for [hi], and [prev.off] is the first [lo + 2] words of the new
   offsets. *)
let sort_band t labels (prev : view) ~hi =
  let lo = prev.bound in
  let g = t.graph in
  let undirected = not (Graph.is_directed g) in
  let r = Labels.rolls_per_edge labels in
  let scratch = Array.make r 0 in
  let b = { len = 0; arc = [||]; lab = [||] } in
  let keep u v l =
    if l > lo && l <= hi then begin
      buf_push b (pack u v) l;
      if undirected then buf_push b (pack v u) l
    end
  in
  Graph.iter_edges g (fun e u v ->
      if r = 1 then keep u v (Labels.roll labels ~edge:e ~k:0)
      else
        for j = 0 to Labels.fill_sorted labels ~edge:e scratch - 1 do
          keep u v scratch.(j)
        done);
  Labels.note_bulk_rolls (Graph.m g * r);
  let old_len = Array.length prev.arcs in
  let off = Array.make (hi + 2) 0 in
  Array.blit prev.off 0 off 0 (lo + 2);
  for i = 0 to b.len - 1 do
    let l = b.lab.(i) in
    off.(l + 1) <- off.(l + 1) + 1
  done;
  group_starts off ~lo ~hi;
  let arcs = Array.make (old_len + b.len) 0 in
  Array.blit prev.arcs 0 arcs 0 old_len;
  let cursor = Array.sub off 0 (hi + 1) in
  for i = 0 to b.len - 1 do
    let l = b.lab.(i) in
    arcs.(cursor.(l)) <- b.arc.(i);
    cursor.(l) <- cursor.(l) + 1
  done;
  { bound = hi; complete = hi >= t.lifetime; arcs; off }

(* The whole stream's group offsets: one direct loop over the labels,
   made by the first band pass that needs them, under the builder lock,
   so racing builders count them once. *)
let whole_offsets t label =
  let directions = directions t in
  let off = Array.make (t.lifetime + 2) 0 in
  for e = 0 to Cells.length label - 1 do
    let l = Cells.unsafe_get label (2 * e) in
    off.(l + 1) <- off.(l + 1) + directions
  done;
  group_starts off ~lo:0 ~hi:t.lifetime;
  off

(* A stored band: the offsets give each group's start, so every arc
   with lo < label <= hi goes straight to its final slot, behind a copy
   of [prev]'s arcs.  The edges are visited in id order, so ties keep
   emission order: only the listed ones when the band comes with its
   list ([Graph.iter_edge_ids]), else all of them.  No buffer, no
   second sort, and nothing allocated per edge. *)
let place_band t ~label ~off ~listed (prev : view) ~hi =
  let lo = prev.bound in
  let directions = directions t in
  let arcs = Array.make off.(hi + 1) 0 in
  Array.blit prev.arcs 0 arcs 0 (Array.length prev.arcs);
  let cursor = Array.sub off 0 (hi + 1) in
  let place e u v =
    let l = Cells.unsafe_get label (2 * e) in
    if l > lo && l <= hi then begin
      let pos = cursor.(l) in
      cursor.(l) <- pos + directions;
      arcs.(pos) <- pack u v;
      if directions = 2 then arcs.(pos + 1) <- pack v u
    end
  in
  (match listed with
  | Some (pos, len) -> Graph.iter_edge_ids t.graph pos ~len place
  | None -> Graph.iter_edges t.graph place);
  { bound = hi; complete = hi >= t.lifetime; arcs; off }

(* The first band's [hi + 2] offsets, counted from its list alone.
   The cell reads are unchecked, so each listed id is checked here. *)
let listed_offsets t ~label ~pos ~len ~hi =
  let directions = directions t in
  let m = Cells.length label in
  let off = Array.make (hi + 2) 0 in
  for j = 0 to len - 1 do
    let e = pos.(j) in
    if e < 0 || e >= m then
      invalid_arg "Implicit.Stream: a listed edge id is out of range";
    let l = Cells.unsafe_get label (2 * e) in
    off.(l + 1) <- off.(l + 1) + directions
  done;
  group_starts off ~lo:0 ~hi;
  off

(* A stored stream places its first band from the list when it has one
   and is asked for exactly that band; [force_complete]'s one band to
   the lifetime ignores it.  Any other band takes the first [hi + 2] of
   the whole stream's offsets, counting them first if no band has.
   Either way the list goes with the first band placed: nothing reads
   it again. *)
let build_band t prev ~hi =
  match t.source with
  | Derived labels -> sort_band t labels prev ~hi
  | Stored s ->
    let label = s.label in
    let off, listed =
      match s.first with
      | Some (pos, len) when hi = t.initial_bound ->
        (listed_offsets t ~label ~pos ~len ~hi, s.first)
      | Some _ | None ->
        if Array.length s.off = 0 then begin
          s.off <- whole_offsets t label;
          s.counts <- s.counts + 1
        end;
        (Array.sub s.off 0 (hi + 2), None)
    in
    s.first <- None;
    place_band t ~label ~off ~listed prev ~hi

(* Publish bands until [enough] holds of the published view, [next v]
   being the bound of the band built after [v].  Builders re-check
   under the lock: another domain may have published a deeper prefix
   while this one waited. *)
let grow t ~enough ~next =
  if not (enough (Atomic.get t.cur)) then begin
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let rec go () =
          let v = Atomic.get t.cur in
          if not (enough v) then begin
            Atomic.set t.cur (build_band t v ~hi:(next v));
            go ()
          end
        in
        go ())
  end;
  Atomic.get t.cur

(* The bound schedule: [initial_bound], then doubling, capped at the
   lifetime.  Each step is built at most once per instance. *)
let scheduled t v =
  if v.bound = 0 then t.initial_bound else Stdlib.min t.lifetime (2 * v.bound)

let extend t ~past =
  (grow t ~enough:(fun v -> v.bound > past || v.complete) ~next:(scheduled t))
    .bound > past

(* A stored stream finishes in one band, to the lifetime; a derived one
   keeps to the schedule, so its roll count does not depend on who
   forced it. *)
let force_complete t =
  let next =
    match t.source with
    | Stored _ -> fun _ -> t.lifetime
    | Derived _ -> scheduled t
  in
  grow t ~enough:(fun v -> v.complete) ~next

let offset_counts t =
  match t.source with Stored s -> s.counts | Derived _ -> 0
