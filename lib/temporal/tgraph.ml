module Graph = Sgraph.Graph

(* Three label layouts share one temporal-network type.  [Sets] is the
   general per-edge label-set assignment; [Single] is the flat fast
   path for one-label-per-edge models (UNI-CASE, the normalized U-RTN
   clique), which stores the label as a bare int — no n² one-element
   arrays.  [Derived] stores nothing at all: labels are recomputed per
   query from [(seed, edge, roll)] by [Implicit.Labels], which is what
   lets instances scale past the O(n²·r) materialization wall.  Every
   kernel-facing query ([edge_next_label_after], …) dispatches once and
   works on unboxed ints whichever layout backs the network. *)
type labelling =
  | Sets of Label.t array
  | Single of int array
  | Derived of Implicit.Labels.t

(* The time-edge stream, counting-sorted by label (stable: ties keep
   emission order — edge id ascending, u->v before v->u).  [Full] holds
   the whole stream in four parallel arrays; [Lazy] holds a
   label-bounded prefix that grows on demand and is always a byte
   prefix of what [Full] would hold, so kernels written against
   {!stream_prefix}/{!stream_extend} behave identically on both. *)
type stream_rep =
  | Full of {
      te_src : int array;
      te_dst : int array;
      te_label : int array;
      te_edge : int array;
    }
  | Lazy of Implicit.Stream.t

type t = {
  graph : Graph.t;
  lifetime : int;
  labelling : labelling;
  stream_rep : stream_rep;
}

(* Counting sort by label: one pass to histogram labels 1..lifetime,
   a prefix sum for bucket offsets (its total is the stream length),
   then a second emission pass writing each stream entry directly into
   its final slot.  O(M + a) and deterministic, versus the seed's
   O(M log M) closure-comparator sort with heapsort-arbitrary tie
   order and four permutation copies.
   Each edge's labels are visited in ascending order (Label.t is
   sorted; Single is one label) so stability gives the documented tie
   order.  The histogram reads the label arrays directly, and the
   emission pass matches on the labelling once per edge and calls
   [place] directly: nothing is allocated per edge. *)
let build_stream g ~lifetime labelling =
  let directions = if Graph.is_directed g then 1 else 2 in
  let m = Graph.m g in
  let counts = Array.make (lifetime + 1) 0 in
  (match labelling with
   | Single label ->
     for e = 0 to m - 1 do
       let l = label.(e) in
       counts.(l) <- counts.(l) + directions
     done
   | Sets sets ->
     for e = 0 to m - 1 do
       let ls = (sets.(e) :> int array) in
       for i = 0 to Array.length ls - 1 do
         counts.(ls.(i)) <- counts.(ls.(i)) + directions
       done
     done
   | Derived _ -> assert false (* derived streams build lazily *));
  let sum = ref 0 in
  for l = 1 to lifetime do
    let c = counts.(l) in
    counts.(l) <- !sum;
    sum := !sum + c
  done;
  let total = !sum in
  let te_src = Array.make total 0 in
  let te_dst = Array.make total 0 in
  let te_label = Array.make total 0 in
  let te_edge = Array.make total 0 in
  let place e u v l =
    let pos = counts.(l) in
    counts.(l) <- pos + directions;
    te_src.(pos) <- u;
    te_dst.(pos) <- v;
    te_label.(pos) <- l;
    te_edge.(pos) <- e;
    if directions = 2 then begin
      te_src.(pos + 1) <- v;
      te_dst.(pos + 1) <- u;
      te_label.(pos + 1) <- l;
      te_edge.(pos + 1) <- e
    end
  in
  Graph.iter_edges g (fun e u v ->
      match labelling with
      | Single label -> place e u v label.(e)
      | Sets sets ->
        let ls = (sets.(e) :> int array) in
        for i = 0 to Array.length ls - 1 do
          place e u v ls.(i)
        done
      | Derived _ -> assert false);
  Full { te_src; te_dst; te_label; te_edge }

let create g ~lifetime labels =
  if lifetime <= 0 then invalid_arg "Tgraph.create: lifetime must be positive";
  if Array.length labels <> Graph.m g then
    invalid_arg "Tgraph.create: one label set per edge required";
  Array.iter
    (fun ls ->
      if not (Label.within_lifetime ls lifetime) then
        invalid_arg "Tgraph.create: label beyond the lifetime")
    labels;
  let labelling = Sets labels in
  let stream_rep = build_stream g ~lifetime labelling in
  { graph = g; lifetime; labelling; stream_rep }

let of_flat_arcs g ~lifetime label =
  if lifetime <= 0 then
    invalid_arg "Tgraph.of_flat_arcs: lifetime must be positive";
  if Array.length label <> Graph.m g then
    invalid_arg "Tgraph.of_flat_arcs: one label per edge required";
  Array.iter
    (fun l ->
      if l < 1 then invalid_arg "Tgraph.of_flat_arcs: labels must be positive";
      if l > lifetime then
        invalid_arg "Tgraph.of_flat_arcs: label beyond the lifetime")
    label;
  let labelling = Single label in
  let stream_rep = build_stream g ~lifetime labelling in
  { graph = g; lifetime; labelling; stream_rep }

let of_derived g ~a ~seed ~r =
  let labels = Implicit.Labels.make ~seed ~a ~r in
  {
    graph = g;
    lifetime = a;
    labelling = Derived labels;
    stream_rep = Lazy (Implicit.Stream.create g ~labels ~lifetime:a);
  }

let is_implicit t =
  match t.stream_rep with Full _ -> false | Lazy _ -> true

(* Re-rolling every site of a derived instance yields, by the
   site-independence of [Implicit.Labels.roll], exactly the label
   arrays the dense constructors would have been given — so the stream
   built here is byte-identical to any prefix the [Lazy] form ever
   publishes (same stable sort over the same emission order).  This is
   the dense twin used by the equivalence oracle and by the [dense]
   backend of the scale experiment. *)
let materialize t =
  match t.labelling with
  | Sets _ | Single _ -> t
  | Derived d ->
    let g = t.graph in
    let m = Graph.m g in
    let r = Implicit.Labels.rolls_per_edge d in
    let net =
      if r = 1 then
        of_flat_arcs g ~lifetime:t.lifetime
          (Array.init m (fun e -> Implicit.Labels.roll d ~edge:e ~k:0))
      else begin
        let scratch = Array.make r 0 in
        create g ~lifetime:t.lifetime
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
  | Single l -> Label.singleton l.(e)
  | Derived d ->
    let acc = ref [] in
    Implicit.Labels.iter d ~edge:e (fun l -> acc := l :: !acc);
    Label.of_list (List.rev !acc)

let label_count t =
  match t.labelling with
  | Sets a -> Array.fold_left (fun acc ls -> acc + Label.size ls) 0 a
  | Single l -> Array.length l
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

let time_edge_count t =
  match t.stream_rep with
  | Full s -> Array.length s.te_label
  | Lazy _ -> materialized_error "time_edge_count"

let iter_time_edges t f =
  match t.stream_rep with
  | Full s ->
    for i = 0 to Array.length s.te_label - 1 do
      f ~src:s.te_src.(i) ~dst:s.te_dst.(i) ~label:s.te_label.(i)
        ~edge:s.te_edge.(i)
    done
  | Lazy _ -> materialized_error "iter_time_edges"

let stream t =
  match t.stream_rep with
  | Full s -> (s.te_src, s.te_dst, s.te_label, s.te_edge)
  | Lazy _ -> materialized_error "stream"

(* The prefix interface every sweep kernel scans.  On [Full] networks
   the prefix is the whole stream and [stream_extend] is always false;
   on [Lazy] ones the arrays grow (by replacement — grab them again
   after an extend) while remaining byte prefixes of the full stream,
   so resuming a scan at a saved index is always valid. *)

let stream_prefix t =
  match t.stream_rep with
  | Full s -> (s.te_src, s.te_dst, s.te_label, s.te_edge)
  | Lazy st ->
    let v = Implicit.Stream.view st in
    (v.te_src, v.te_dst, v.te_label, v.te_edge)

let stream_prefix_bound t =
  match t.stream_rep with
  | Full _ -> t.lifetime
  | Lazy st -> (Implicit.Stream.view st).bound

let stream_complete t =
  match t.stream_rep with
  | Full _ -> true
  | Lazy st -> (Implicit.Stream.view st).complete

let stream_extend t ~past =
  match t.stream_rep with
  | Full _ -> false
  | Lazy st -> Implicit.Stream.extend st ~past

let time_edge t i =
  match t.stream_rep with
  | Full s -> (s.te_src.(i), s.te_dst.(i), s.te_label.(i))
  | Lazy st ->
    (* Valid for any index a kernel has already scanned: the published
       prefix only ever grows. *)
    let v = Implicit.Stream.view st in
    (v.te_src.(i), v.te_dst.(i), v.te_label.(i))

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
  | Single l -> l.(e) = x
  | Derived d -> Implicit.Labels.has d ~edge:e x

let edge_next_label_after t e x =
  match t.labelling with
  | Sets a -> Label.next_after a.(e) x
  | Single l -> if l.(e) > x then l.(e) else max_int
  | Derived d -> Implicit.Labels.next_after d ~edge:e x

let edge_next_label_in t e ~lo ~hi =
  match t.labelling with
  | Sets a -> Label.next_in a.(e) ~lo ~hi
  | Single l -> if l.(e) > lo && l.(e) <= hi then l.(e) else max_int
  | Derived d -> Implicit.Labels.next_in d ~edge:e ~lo ~hi

let iter_edge_labels t e f =
  match t.labelling with
  | Sets a -> Array.iter f (a.(e) :> int array)
  | Single l -> f l.(e)
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
