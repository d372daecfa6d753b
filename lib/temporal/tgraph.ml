module Graph = Sgraph.Graph
module Stream = Implicit.Stream
module Cells = Prng.Cells

(* Three label layouts share one temporal-network type.  [Sets] is the
   general per-edge label-set assignment; [Single] is the flat fast
   path for one-label-per-edge models (UNI-CASE, the normalized U-RTN
   clique), which stores each label in a two-byte cell ([Prng.Cells],
   edge [e] at byte [2 e]) — no n² one-element arrays, and a quarter
   of an int array's bytes.  A label above [Cells.max_value] has no
   cell, so a one-label network of a longer lifetime is built as
   [Sets] of singletons.  [Derived] stores nothing at all: labels are
   recomputed per query from [(seed, edge, roll)] by [Implicit.Labels],
   which is what lets instances scale past the O(n²·r) materialization
   wall.  Every kernel-facing query ([edge_next_label_after], …)
   dispatches once and works on unboxed ints whichever layout backs the
   network. *)
type labelling =
  | Sets of Label.t array
  | Single of Cells.t
  | Derived of Implicit.Labels.t

(* The time-edge stream in the layout [Implicit.Stream] defines: one
   packed word per arc, counting-sorted by label (stable: ties keep
   emission order — edge id ascending, u->v before v->u), plus the
   label-group offsets.  [Full] holds the whole stream, built at
   construction ([Sets]); [Lazy] holds a label-bounded prefix that
   grows on demand ([Single] from its stored labels, [Derived] by
   re-rolling them) and is always a byte prefix of what [Full] would
   hold, so kernels written against {!stream_prefix}/{!stream_extend}
   behave identically on all three. *)
type stream_rep = Full of Stream.view | Lazy of Stream.t

type t = {
  graph : Graph.t;
  lifetime : int;
  labelling : labelling;
  stream_rep : stream_rep;
}

(* Counting sort by label, O(M + a) and deterministic.  [create]
   makes one pass over its labels that validates them and counts arcs
   per label into [off.(l + 1)]; [Stream.group_starts] then turns the
   counts into the offsets of the whole stream, and one placement pass
   visits every edge's labels in ascending order (Label.t is sorted)
   behind a placement cursor, so stability gives the documented tie
   order.  The placement is one [Graph.iter_edges] callback per edge,
   with the shift bound outside it: nothing is allocated per edge.

   A single-label network places nothing and counts nothing here: it
   hands its labels to a stored [Implicit.Stream], with the list of
   the edges in the first band when the lifetime calls for one
   ([Stream.list_bound]).  [of_flat_arcs] and [materialize] list it
   from the cells they filled; [of_uniform_draws] gets it from the draw
   loop, which is then the only pass over the [m] labels a sweep that
   stays in the first band ever makes. *)
let create g ~lifetime labels =
  Stream.check_vertices "Tgraph.create" g;
  if lifetime <= 0 then invalid_arg "Tgraph.create: lifetime must be positive";
  if Array.length labels <> Graph.m g then
    invalid_arg "Tgraph.create: one label set per edge required";
  let directions = if Graph.is_directed g then 1 else 2 in
  let off = Array.make (lifetime + 2) 0 in
  Array.iter
    (fun ls ->
      if not (Label.within_lifetime ls lifetime) then
        invalid_arg "Tgraph.create: label beyond the lifetime";
      let ls = (ls :> int array) in
      for i = 0 to Array.length ls - 1 do
        off.(ls.(i) + 1) <- off.(ls.(i) + 1) + directions
      done)
    labels;
  Stream.group_starts off ~lo:0 ~hi:lifetime;
  let cursor = Array.sub off 0 (lifetime + 1) in
  let arcs = Array.make off.(lifetime + 1) 0 in
  let shift = Stream.arc_shift in
  Graph.iter_edges g (fun e u v ->
      let ls = (labels.(e) :> int array) in
      for i = 0 to Array.length ls - 1 do
        let l = ls.(i) in
        let pos = cursor.(l) in
        cursor.(l) <- pos + directions;
        arcs.(pos) <- (u lsl shift) lor v;
        if directions = 2 then arcs.(pos + 1) <- (v lsl shift) lor u
      done);
  {
    graph = g;
    lifetime;
    labelling = Sets labels;
    stream_rep = Full { bound = lifetime; complete = true; arcs; off };
  }

let single g ~lifetime cells ~first =
  {
    graph = g;
    lifetime;
    labelling = Single cells;
    stream_rep = Lazy (Stream.stored g ~label:cells ~first ~lifetime);
  }

(* Names the first bad label in edge order. *)
let check_flat_labels label ~lifetime =
  for e = 0 to Array.length label - 1 do
    let l = label.(e) in
    if l < 1 then invalid_arg "Tgraph.of_flat_arcs: labels must be positive";
    if l > lifetime then
      invalid_arg "Tgraph.of_flat_arcs: label beyond the lifetime"
  done

(* The edges whose label cell is in the first band, ascending, when the
   lifetime calls for that list ([Stream.list_bound]). *)
let first_band cells ~m ~lifetime =
  let cut = Stream.list_bound ~lifetime in
  if cut = 0 then None
  else begin
    let k = ref 0 in
    for e = 0 to m - 1 do
      if Cells.unsafe_get cells (2 * e) <= cut then incr k
    done;
    let pos = Array.make !k 0 and j = ref 0 in
    for e = 0 to m - 1 do
      if Cells.unsafe_get cells (2 * e) <= cut then begin
        pos.(!j) <- e;
        incr j
      end
    done;
    Some (pos, !k)
  end

let of_flat_arcs g ~lifetime label =
  Stream.check_vertices "Tgraph.of_flat_arcs" g;
  if lifetime <= 0 then
    invalid_arg "Tgraph.of_flat_arcs: lifetime must be positive";
  let m = Graph.m g in
  if Array.length label <> m then
    invalid_arg "Tgraph.of_flat_arcs: one label per edge required";
  check_flat_labels label ~lifetime;
  if lifetime <= Cells.max_value then begin
    let cells = Cells.create m in
    for e = 0 to m - 1 do
      Cells.unsafe_set cells (2 * e) label.(e)
    done;
    single g ~lifetime cells ~first:(first_band cells ~m ~lifetime)
  end
  else create g ~lifetime (Array.map Label.singleton label)

(* The labels are drawn here, so they need no validation: the fill
   keeps them in [1..lifetime] and lists the first band as it draws. *)
let of_uniform_draws rng g ~lifetime =
  Stream.check_vertices "Tgraph.of_uniform_draws" g;
  let cells = Cells.create (Graph.m g) in
  let cut = Stream.list_bound ~lifetime in
  let first = Prng.Rng.fill_int rng ~base:1 lifetime ~cut cells in
  single g ~lifetime cells ~first:(if cut > 0 then Some first else None)

let of_derived g ~a ~seed ~r =
  Stream.check_vertices "Tgraph.of_derived" g;
  let labels = Implicit.Labels.make ~seed ~a ~r in
  {
    graph = g;
    lifetime = a;
    labelling = Derived labels;
    stream_rep = Lazy (Stream.derived g ~labels ~lifetime:a);
  }

let is_implicit t =
  match t.labelling with Derived _ -> true | Sets _ | Single _ -> false

(* Re-rolling every site of a derived instance yields, by the
   site-independence of [Implicit.Labels.roll], exactly the labels the
   dense constructors would have been given — so the stream built here
   is byte-identical to any prefix the [Lazy] form ever publishes (same
   stable sort over the same emission order).  This is the dense twin
   used by the equivalence oracle and by the [dense] backend of the
   scale experiment.  One roll per edge goes straight to its cell, as
   [of_flat_arcs] would copy it, with no int array in between; the
   first band is then listed from the cells.  Past the cell limit, and
   at more rolls per edge, the rolls become label sets. *)
let materialize t =
  match t.labelling with
  | Sets _ | Single _ -> t
  | Derived d ->
    let g = t.graph and lifetime = t.lifetime in
    let m = Graph.m g in
    let r = Implicit.Labels.rolls_per_edge d in
    let net =
      if r = 1 && lifetime <= Cells.max_value then begin
        let cells = Cells.create m in
        for e = 0 to m - 1 do
          Cells.unsafe_set cells (2 * e) (Implicit.Labels.roll d ~edge:e ~k:0)
        done;
        single g ~lifetime cells ~first:(first_band cells ~m ~lifetime)
      end
      else begin
        let scratch = Array.make r 0 in
        create g ~lifetime
          (Array.init m (fun e ->
               let cnt = Implicit.Labels.fill_sorted d ~edge:e scratch in
               Label.of_array (Array.sub scratch 0 cnt)))
      end
    in
    Implicit.Labels.note_bulk_rolls (m * r);
    net

let graph t = t.graph
let lifetime t = t.lifetime
let n t = Graph.n t.graph

let labels t e =
  match t.labelling with
  | Sets a -> a.(e)
  | Single c -> Label.singleton (Cells.get c (2 * e))
  | Derived d ->
    let acc = ref [] in
    Implicit.Labels.iter d ~edge:e (fun l -> acc := l :: !acc);
    Label.of_list (List.rev !acc)

let label_count t =
  match t.labelling with
  | Sets a -> Array.fold_left (fun acc ls -> acc + Label.size ls) 0 a
  | Single c -> Cells.length c
  | Derived d ->
    let m = Graph.m t.graph in
    if Implicit.Labels.rolls_per_edge d = 1 then m
    else begin
      (* Honest O(m·r) count of the distinct supports. *)
      let scratch = Array.make (Implicit.Labels.rolls_per_edge d) 0 in
      let total = ref 0 in
      for e = 0 to m - 1 do
        total := !total + Implicit.Labels.fill_sorted d ~edge:e scratch
      done;
      Implicit.Labels.note_bulk_rolls (m * Implicit.Labels.rolls_per_edge d);
      !total
    end

let materialized_error fn =
  invalid_arg
    (Printf.sprintf
       "Tgraph.%s: derived-label stream is lazily materialized; scan \
        stream_prefix/stream_extend instead, or Tgraph.materialize the \
        instance first"
       fn)

(* A single-label stream holds one arc per edge direction, placed or
   not yet, and finishes in one band pass when a whole-stream reader
   asks for it. *)
let time_edge_count t =
  match (t.stream_rep, t.labelling) with
  | Full v, _ -> Array.length v.arcs
  | Lazy _, Single _ -> Graph.arc_count t.graph
  | Lazy _, (Sets _ | Derived _) -> materialized_error "time_edge_count"

let stream_extend_all t =
  match t.stream_rep with Full v -> v | Lazy st -> Stream.force_complete st

let whole_stream fn t =
  match t.labelling with
  | Derived _ -> materialized_error fn
  | Sets _ | Single _ -> stream_extend_all t

let iter_time_edges t f =
  let v = whole_stream "iter_time_edges" t in
  for l = 1 to v.bound do
    for i = v.off.(l) to v.off.(l + 1) - 1 do
      let a = v.arcs.(i) in
      f ~src:(Stream.arc_src a) ~dst:(Stream.arc_dst a) ~label:l
    done
  done

let stream t = whole_stream "stream" t

(* The prefix interface every sweep kernel scans.  On [Full] networks
   the prefix is the whole stream and [stream_extend] is always false;
   on [Lazy] ones the view grows (by replacement — grab it again after
   an extend) while remaining a byte prefix of the full stream, so
   resuming a scan at a saved index or label is always valid. *)

let stream_prefix t =
  match t.stream_rep with Full v -> v | Lazy st -> Stream.view st

let stream_prefix_bound t = (stream_prefix t).bound
let stream_complete t = (stream_prefix t).complete

let stream_extend t ~past =
  match t.stream_rep with
  | Full _ -> false
  | Lazy st -> Stream.extend st ~past

(* Valid for any index a kernel has already scanned: the published
   prefix only ever grows, and its [off] with it. *)
let time_edge t i =
  let v = stream_prefix t in
  let a = v.arcs.(i) in
  (Stream.arc_src a, Stream.arc_dst a, Stream.label_at v i)

(* ---------------------------------------------------------------- *)
(* Per-edge label queries: the scalar kernel interface.  Each returns
   unboxed ints ([max_int] = none), whichever labelling backs the
   network; [Derived] recomputes the rolls in O(r) instead of reading
   an array. *)

let edge_label_size t e =
  match t.labelling with
  | Sets a -> Label.size a.(e)
  | Single _ -> 1
  | Derived d -> Implicit.Labels.size d ~edge:e

let edge_has_label t e x =
  match t.labelling with
  | Sets a -> Label.mem a.(e) x
  | Single c -> Cells.get c (2 * e) = x
  | Derived d -> Implicit.Labels.has d ~edge:e x

let edge_next_label_after t e x =
  match t.labelling with
  | Sets a -> Label.next_after a.(e) x
  | Single c ->
    let l = Cells.get c (2 * e) in
    if l > x then l else max_int
  | Derived d -> Implicit.Labels.next_after d ~edge:e x

let edge_next_label_in t e ~lo ~hi =
  match t.labelling with
  | Sets a -> Label.next_in a.(e) ~lo ~hi
  | Single c ->
    let l = Cells.get c (2 * e) in
    if l > lo && l <= hi then l else max_int
  | Derived d -> Implicit.Labels.next_in d ~edge:e ~lo ~hi

let iter_edge_labels t e f =
  match t.labelling with
  | Sets a -> Array.iter f (a.(e) :> int array)
  | Single c -> f (Cells.get c (2 * e))
  | Derived d -> Implicit.Labels.iter d ~edge:e f

(* ---------------------------------------------------------------- *)
(* Crossings.  The adjacency of the underlying graph *is* the crossing
   table — arcs carry edge ids, labels are looked up by id — so the
   iterators read two flat int arrays (or pure shape arithmetic) and
   allocate nothing. *)

let iter_crossings_out t v f = Graph.iter_out t.graph v f
let iter_crossings_in t v f = Graph.iter_in t.graph v f

let crossings_out t v =
  Array.map (fun (e, target) -> (e, target, labels t e)) (Graph.out_arcs t.graph v)

let crossings_in t v =
  Array.map (fun (e, source) -> (e, source, labels t e)) (Graph.in_arcs t.graph v)

let can_cross_at t ~src ~dst time =
  let found = ref false in
  Graph.iter_out t.graph src (fun e target ->
      if (not !found) && target = dst && edge_has_label t e time then
        found := true);
  !found

let pp ppf t =
  match t.labelling with
  | Derived d ->
    Format.fprintf ppf
      "temporal network on %a, lifetime=%d, derived labels (a=%d, r=%d)"
      Graph.pp t.graph t.lifetime (Implicit.Labels.alpha d)
      (Implicit.Labels.rolls_per_edge d)
  | Sets _ | Single _ ->
    Format.fprintf ppf "temporal network on %a, lifetime=%d, labels=%d"
      Graph.pp t.graph t.lifetime (label_count t)
