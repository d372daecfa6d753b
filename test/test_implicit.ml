(* Implicit-backend suite: arithmetic shapes against CSRs built from
   their emission order, the QCheck equivalence oracle (derived-label
   instances byte-identical to their materialized twins across Foremost
   / reachability / diameter), prefix-stream completeness, boundary
   cases, the clear-error contract of the whole-stream accessors, and
   the workspace sizing contract (no n×k arrival matrix on implicit
   networks). *)

module Graph = Sgraph.Graph
module Gen = Sgraph.Gen
module Rng = Prng.Rng
open Temporal
open Helpers

(* ------------------------------------------------------------------ *)
(* Topology: implicit shapes = CSR twins, observable by every accessor
   a kernel uses, against the emission-order references of [Helpers]
   ([csr_clique], [csr_star], [csr_grid]). *)

let neighbors_of iter g v =
  let acc = ref [] in
  iter g v (fun e w -> acc := (e, w) :: !acc);
  List.rev !acc

let check_same_graph name dense implicit =
  check_int (name ^ ": n") (Graph.n dense) (Graph.n implicit);
  check_int (name ^ ": m") (Graph.m dense) (Graph.m implicit);
  check_bool (name ^ ": kind") true (Graph.kind dense = Graph.kind implicit);
  check_bool (name ^ ": reference is a CSR") false (Graph.is_implicit dense);
  check_bool (name ^ ": implicit flag") true (Graph.is_implicit implicit);
  for e = 0 to Graph.m dense - 1 do
    check_bool
      (Printf.sprintf "%s: endpoints of edge %d" name e)
      true
      (Graph.edge_endpoints dense e = Graph.edge_endpoints implicit e)
  done;
  for v = 0 to Graph.n dense - 1 do
    check_bool
      (Printf.sprintf "%s: out arcs of %d" name v)
      true
      (neighbors_of Graph.iter_out dense v
      = neighbors_of Graph.iter_out implicit v);
    check_bool
      (Printf.sprintf "%s: in arcs of %d" name v)
      true
      (neighbors_of Graph.iter_in dense v
      = neighbors_of Graph.iter_in implicit v);
    check_int
      (Printf.sprintf "%s: out degree of %d" name v)
      (Graph.out_degree dense v) (Graph.out_degree implicit v);
    check_int
      (Printf.sprintf "%s: in degree of %d" name v)
      (Graph.in_degree dense v) (Graph.in_degree implicit v)
  done;
  for u = 0 to Graph.n dense - 1 do
    for v = 0 to Graph.n dense - 1 do
      check_int_option
        (Printf.sprintf "%s: find_edge %d %d" name u v)
        (Graph.find_edge dense u v)
        (Graph.find_edge implicit u v)
    done
  done;
  let edges g =
    let acc = ref [] in
    Graph.iter_edges g (fun e u v -> acc := (e, u, v) :: !acc);
    List.rev !acc
  in
  check_bool (name ^ ": iter_edges") true (edges dense = edges implicit);
  let rd = Graph.reverse dense and ri = Graph.reverse implicit in
  for v = 0 to Graph.n dense - 1 do
    check_bool
      (Printf.sprintf "%s: reverse, out arcs of %d" name v)
      true
      (neighbors_of Graph.iter_out rd v = neighbors_of Graph.iter_out ri v)
  done

let shapes_match_csr () =
  check_same_graph "directed clique" (csr_clique Directed 7)
    (Gen.clique Directed 7);
  check_same_graph "undirected clique" (csr_clique Undirected 7)
    (Gen.clique Undirected 7);
  check_same_graph "star" (csr_star 9) (Gen.star 9);
  check_same_graph "grid" (csr_grid 3 4) (Gen.grid 3 4);
  check_same_graph "degenerate grid row" (csr_grid 1 5) (Gen.grid 1 5);
  check_same_graph "degenerate grid column" (csr_grid 5 1) (Gen.grid 5 1);
  check_same_graph "single vertex clique" (csr_clique Directed 1)
    (Gen.clique Directed 1)

(* ------------------------------------------------------------------ *)
(* The equivalence oracle.  A derived instance and its materialized
   twin must be indistinguishable: same per-edge labels, same Foremost
   arrivals from every source and start time, same temporal
   reachability, same diameter and all-pairs readouts (the batched
   kernels run on both, the implicit one over its lazily extended
   prefix; the diameter is also pinned to the per-source
   instance_diameter_scalar). *)

let gen_derived =
  QCheck2.Gen.(
    let* n = int_range 2 16 in
    let* seed = int_range 0 1_000_000 in
    let* a = int_range 1 12 in
    let* r = int_range 1 3 in
    let* shape = int_range 0 3 in
    return (n, seed, a, r, shape))

let print_derived (n, seed, a, r, shape) =
  Printf.sprintf "(n=%d, seed=%d, a=%d, r=%d, shape=%d)" n seed a r shape

let graph_of_shape ~n ~seed = function
  | 0 -> random_graph ~n ~seed
  | 1 -> Gen.clique Directed n
  | 2 -> Gen.star n
  | _ -> Gen.grid 2 ((n + 1) / 2)

let derived_pair (n, seed, a, r, shape) =
  let g = graph_of_shape ~n ~seed shape in
  let net = Tgraph.of_derived g ~a ~seed:(Int64.of_int seed) ~r in
  (net, Tgraph.materialize net)

let edge_labels net e =
  let acc = ref [] in
  Tgraph.iter_edge_labels net e (fun l -> acc := l :: !acc);
  List.rev !acc

let labels_agree net twin =
  let ok = ref true in
  for e = 0 to Graph.m (Tgraph.graph net) - 1 do
    if edge_labels net e <> edge_labels twin e then ok := false;
    if Tgraph.edge_label_size net e <> Tgraph.edge_label_size twin e then
      ok := false;
    for x = 0 to Tgraph.lifetime net + 1 do
      if Tgraph.edge_has_label net e x <> Tgraph.edge_has_label twin e x then
        ok := false;
      if
        Tgraph.edge_next_label_after net e x
        <> Tgraph.edge_next_label_after twin e x
      then ok := false
    done
  done;
  !ok

let oracle_labels =
  qcase ~count:120 ~print:print_derived
    "derived labels = materialized twin (scalar queries)" gen_derived
    (fun params ->
      let net, twin = derived_pair params in
      labels_agree net twin)

let arrivals_agree ?(start_time = 1) net twin =
  let n = Tgraph.n net in
  let ok = ref true in
  for s = 0 to n - 1 do
    let a1 = Foremost.arrival_array (Foremost.run ~start_time net s) in
    let a2 = Foremost.arrival_array (Foremost.run ~start_time twin s) in
    if a1 <> a2 then ok := false
  done;
  !ok

let oracle_foremost =
  qcase ~count:120 ~print:print_derived
    "derived Foremost arrivals = materialized twin" gen_derived (fun params ->
      let net, twin = derived_pair params in
      arrivals_agree net twin
      (* Start at the lifetime (last usable step) and past it (nothing
         usable): the chunked prefix scan must agree on both horizons. *)
      && arrivals_agree ~start_time:(Tgraph.lifetime net) net twin
      && arrivals_agree ~start_time:(Tgraph.lifetime net + 1) net twin)

let oracle_consumers =
  qcase ~count:80 ~print:print_derived
    "derived treach / diameter = materialized twin" gen_derived (fun params ->
      let net, twin = derived_pair params in
      Reachability.treach net = Reachability.treach twin
      && Reachability.reachable_pair_count net
         = Reachability.reachable_pair_count twin
      && Distance.instance_diameter net = Distance.instance_diameter twin
      && Distance.instance_diameter net = Distance.instance_diameter_scalar net)

(* Lifetimes past the first 64-label prefix, so the batched sweeps
   resume across several lazy extensions of the derived stream. *)
let gen_derived_deep =
  QCheck2.Gen.(
    let* n, seed, _, r, shape = gen_derived in
    let* a = int_range 1 200 in
    return (n, seed, a, r, shape))

(* Each check builds a fresh derived instance, so the batched kernel —
   not an earlier consumer — is what grows its prefix. *)
let fresh params = fst (derived_pair params)

let sweep_rows_match_foremost ?start_time net =
  let n = Tgraph.n net in
  let ok = ref true in
  for b = 0 to Batch.batch_count ~n - 1 do
    let sources = Batch.batch_sources ~n b in
    let t = Batch.sweep ?start_time net ~sources in
    let rows =
      Array.init (Batch.lanes t) (fun lane -> Array.init n (Batch.arrival t ~lane))
    in
    Array.iteri
      (fun lane s ->
        let oracle = Foremost.arrival_array (Foremost.run ?start_time net s) in
        if rows.(lane) <> oracle then ok := false)
      sources
  done;
  !ok

let oracle_batch_sweep =
  qcase ~count:80 ~print:print_derived
    "derived Batch.sweep arrivals = Foremost" gen_derived_deep (fun params ->
      let lifetime = Tgraph.lifetime (fresh params) in
      sweep_rows_match_foremost (fresh params)
      && sweep_rows_match_foremost ~start_time:lifetime (fresh params)
      && sweep_rows_match_foremost ~start_time:(lifetime + 1) (fresh params))

let oracle_batched_consumers =
  qcase ~count:60 ~print:print_derived
    "derived all-pairs / closeness / reach counts = materialized twin"
    gen_derived_deep (fun params ->
      let twin = snd (derived_pair params) in
      Distance.all_pairs (fresh params) = Distance.all_pairs twin
      && Float.equal (Distance.average (fresh params)) (Distance.average twin)
      && Centrality.out_closeness (fresh params) = Centrality.out_closeness twin
      && Centrality.in_closeness (fresh params) = Centrality.in_closeness twin
      && Centrality.reach_counts (fresh params) = Centrality.reach_counts twin)

let oracle_flooding =
  qcase ~count:60 ~print:print_derived
    "derived flooding broadcast = materialized twin" gen_derived (fun params ->
      let net, twin = derived_pair params in
      let ok = ref true in
      for s = 0 to Tgraph.n net - 1 do
        if Flooding.broadcast_time net s <> Flooding.broadcast_time twin s then
          ok := false
      done;
      !ok)

let rec complete_prefix net =
  if not (Tgraph.stream_complete net) then begin
    ignore (Tgraph.stream_extend net ~past:(Tgraph.stream_prefix_bound net));
    complete_prefix net
  end

(* Forcing the prefix to completion must reproduce the dense stream
   byte for byte — arcs and offsets, not just statistics. *)
let oracle_full_prefix =
  qcase ~count:80 ~print:print_derived
    "completed prefix = materialized stream arrays" gen_derived (fun params ->
      let net, twin = derived_pair params in
      complete_prefix net;
      Tgraph.stream_prefix net = Tgraph.stream twin
      && Tgraph.stream_prefix_bound net >= Tgraph.lifetime net)

(* Flooding reads every arc through [Tgraph.stream_extend_all], which
   completes a derived stream in one call: the same stream, and the
   same roll count, as extending it step by step, and the same floods
   as the materialized twin. *)
let label_rolls f =
  Obs.Metrics.reset ();
  Obs.Control.set_enabled true;
  let r = f () in
  Obs.Control.set_enabled false;
  (r, Obs.Metrics.count (Obs.Metrics.counter "implicit.label_rolls"))

let oracle_extend_all =
  qcase ~count:60 ~print:print_derived
    "derived extend_all = stepwise completion, same rolls" gen_derived_deep
    (fun params ->
      let twin = snd (derived_pair params) in
      let stepped = fresh params and at_once = fresh params in
      let (), stepwise = label_rolls (fun () -> complete_prefix stepped) in
      let all, rolls =
        label_rolls (fun () -> Tgraph.stream_extend_all at_once)
      in
      let flood net s =
        let r = Flooding.run net s in
        (r.informed_time, r.transmissions)
      in
      all = Tgraph.stream_prefix stepped
      && all = Tgraph.stream twin
      && rolls = stepwise
      && List.for_all
           (fun s -> flood (fresh params) s = flood twin s)
           (List.init (Tgraph.n twin) Fun.id))

(* Journeys on implicit networks: a predecessor index becomes a label by
   a binary search on the offsets of whatever view is current when the
   journey is rebuilt.  Every sweep runs before any journey is rebuilt,
   so later sweeps have grown the prefix past what earlier ones
   scanned.  The twin's journeys decode labels the same way, so each
   journey is also checked on its own: a journey arriving at the
   foremost arrival; and the completed prefix's time edges are checked
   against the twin's group-by-group walk. *)
let oracle_journeys =
  qcase ~count:60 ~print:print_derived
    "derived journeys and time edges = materialized twin" gen_derived_deep
    (fun params ->
      let net = fresh params and twin = snd (derived_pair params) in
      let n = Tgraph.n net in
      let runs =
        Array.init n (fun s -> (s, Foremost.run net s, Foremost.run twin s))
      in
      let journey_ok s r r' v =
        let j = Foremost.journey_to net r v in
        j = Foremost.journey_to twin r' v
        &&
        match j with
        | None -> Foremost.distance r v = None
        | Some j ->
          Journey.is_journey net ~source:s ~target:v j
          && (v = s || Journey.arrival j = Foremost.distance r v)
      in
      let journeys_agree =
        Array.for_all
          (fun (s, r, r') ->
            List.for_all (journey_ok s r r') (List.init n Fun.id))
          runs
      in
      complete_prefix net;
      let entries = ref [] in
      Tgraph.iter_time_edges twin (fun ~src ~dst ~label ->
          entries := (src, dst, label) :: !entries);
      journeys_agree
      && List.for_all2
           (fun i e -> Tgraph.time_edge net i = e)
           (List.init (Tgraph.time_edge_count twin) Fun.id)
           (List.rev !entries))

(* ------------------------------------------------------------------ *)
(* Assignment constructors: the implicit uniform families must
   materialize into networks the dense accessors accept, with labels
   inside {1..a} and exactly r rolls per edge (counted with
   multiplicity collapsed — the support size is <= r). *)

let assignment_constructors () =
  let g = Gen.clique Directed 6 in
  let net = Assignment.uniform_single_implicit (rng ()) g ~a:6 in
  check_bool "single: implicit" true (Tgraph.is_implicit net);
  let twin = Tgraph.materialize net in
  check_bool "single: twin dense" false (Tgraph.is_implicit twin);
  check_bool "single: labels agree" true (labels_agree net twin);
  check_int "single: one label per edge" (Graph.m g) (Tgraph.label_count net);
  let multi = Assignment.uniform_multi_implicit (rng ()) g ~a:4 ~r:3 in
  let mtwin = Tgraph.materialize multi in
  check_bool "multi: labels agree" true (labels_agree multi mtwin);
  Graph.iter_edges g (fun e _ _ ->
      let ls = edge_labels multi e in
      check_bool "multi: support <= r" true (List.length ls <= 3);
      List.iter
        (fun l -> check_bool "multi: label in 1..a" true (l >= 1 && l <= 4))
        ls);
  Alcotest.check_raises "multi: r = 0 rejected"
    (Invalid_argument "Assignment.uniform_multi_implicit: r must be >= 1")
    (fun () -> ignore (Assignment.uniform_multi_implicit (rng ()) g ~a:4 ~r:0))

(* Boundary instances the generators rarely hit squarely. *)
let boundary_cases () =
  (* r > a: supports collapse, never exceed the lifetime. *)
  let g = Gen.clique Directed 4 in
  let net = Tgraph.of_derived g ~a:2 ~seed:77L ~r:6 in
  let twin = Tgraph.materialize net in
  check_bool "r > a: labels agree" true (labels_agree net twin);
  check_bool "r > a: diameters agree" true
    (Distance.instance_diameter net = Distance.instance_diameter twin);
  (* a = 1: every edge alive exactly at time 1. *)
  let one = Tgraph.of_derived g ~a:1 ~seed:5L ~r:1 in
  Graph.iter_edges g (fun e _ _ ->
      check_bool "a = 1: label is 1" true (Tgraph.edge_has_label one e 1);
      check_int "a = 1: nothing after 1" max_int
        (Tgraph.edge_next_label_after one e 1));
  check_int_option "a = 1: clique diameter 1" (Some 1)
    (Distance.instance_diameter one);
  (* n = 1: empty edge set, diameter of the single vertex. *)
  let solo =
    Tgraph.of_derived (Gen.clique Directed 1) ~a:3 ~seed:9L ~r:1
  in
  check_int_option "n = 1: diameter" (Distance.instance_diameter
      (Tgraph.materialize solo))
    (Distance.instance_diameter solo);
  check_bool "n = 1: treach" true (Reachability.treach solo);
  (* Constructor argument checks. *)
  Alcotest.check_raises "a = 0 rejected"
    (Invalid_argument "Implicit.Labels.make: need a >= 1") (fun () ->
      ignore (Tgraph.of_derived g ~a:0 ~seed:1L ~r:1));
  Alcotest.check_raises "r = 0 rejected"
    (Invalid_argument "Implicit.Labels.make: need r >= 1") (fun () ->
      ignore (Tgraph.of_derived g ~a:3 ~seed:1L ~r:0))

(* A packed arc holds two [arc_shift]-bit endpoints: construction
   rejects a larger graph by name, before any label is read or rolled.
   Implicit stars make the 2^arc_shift-vertex graphs cost nothing. *)
let vertex_bound () =
  let shift = Implicit.Stream.arc_shift in
  let top = (1 lsl shift) - 1 in
  check_int "top vertex packs as src" top
    (Implicit.Stream.arc_src (Implicit.Stream.pack top top));
  check_int "top vertex packs as dst" top
    (Implicit.Stream.arc_dst (Implicit.Stream.pack top top));
  check_bool "2^arc_shift vertices accepted" true
    (Tgraph.is_implicit
       (Tgraph.of_derived
          (Gen.star (1 lsl shift))
          ~a:2 ~seed:1L ~r:1));
  let big = Gen.star ((1 lsl shift) + 1) in
  let rejected name f =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "%s: more than 2^%d vertices do not fit a packed arc"
            name shift))
      (fun () -> ignore (f ()))
  in
  rejected "Tgraph.of_derived" (fun () ->
      Tgraph.of_derived big ~a:2 ~seed:1L ~r:1);
  rejected "Tgraph.create" (fun () -> Tgraph.create big ~lifetime:2 [||]);
  rejected "Tgraph.of_flat_arcs" (fun () ->
      Tgraph.of_flat_arcs big ~lifetime:2 [||])

(* Whole-stream accessors refuse implicit networks with an error that
   names the fix. *)
let whole_stream_errors () =
  let net =
    Tgraph.of_derived (Gen.clique Directed 5) ~a:5 ~seed:3L ~r:1
  in
  let expect_materialize_error name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
      check_bool (name ^ ": names the accessor") true (contains msg name);
      check_bool (name ^ ": names materialize") true
        (contains msg "materialize")
  in
  expect_materialize_error "stream" (fun () -> ignore (Tgraph.stream net));
  expect_materialize_error "time_edge_count" (fun () ->
      ignore (Tgraph.time_edge_count net));
  expect_materialize_error "iter_time_edges" (fun () ->
      Tgraph.iter_time_edges net (fun ~src:_ ~dst:_ ~label:_ -> ()))

(* Determinism and site-independence of the label hash: rolls depend
   only on (seed, edge, k) — never on query order — and distinct seeds
   give distinct labellings somewhere on a big enough instance. *)
let site_independence () =
  let d = Implicit.Labels.make ~seed:42L ~a:10 ~r:3 in
  let first = Array.init 30 (fun i -> Implicit.Labels.roll d ~edge:(i / 3) ~k:(i mod 3)) in
  (* Query backwards, interleaved with unrelated probes. *)
  for i = 29 downto 0 do
    ignore (Implicit.Labels.has d ~edge:((i * 7) mod 10) ((i mod 10) + 1));
    check_int
      (Printf.sprintf "roll (%d, %d) stable" (i / 3) (i mod 3))
      first.(i)
      (Implicit.Labels.roll d ~edge:(i / 3) ~k:(i mod 3))
  done;
  let d' = Implicit.Labels.make ~seed:43L ~a:10 ~r:3 in
  let differs = ref false in
  for e = 0 to 9 do
    for k = 0 to 2 do
      if Implicit.Labels.roll d ~edge:e ~k <> Implicit.Labels.roll d' ~edge:e ~k
      then differs := true
    done
  done;
  check_bool "distinct seeds differ" true !differs;
  Array.iter
    (fun l -> check_bool "rolls inside 1..a" true (l >= 1 && l <= 10))
    first

(* The workspace sizing contract of the implicit backend: the
   arrival-free entry point never grows the n×lanes arrival matrix, so
   temporal kernel scratch stays O(n) words on derived instances. *)
let workspace_planes_sizing () =
  let n = 1_000_000 in
  let ws = Workspace.get_batch_planes ~n in
  check_bool "bitset planes sized" true (Array.length ws.lane_reached >= n);
  check_bool "delta plane sized" true (Array.length ws.lane_delta >= n);
  check_bool "no n*lanes arrival matrix" true
    (Array.length ws.lane_arrival < n);
  (* And the arrival-free consumers really do run on an instance of
     that character without touching the matrix. *)
  let net =
    Tgraph.of_derived (Gen.clique Directed 128) ~a:128 ~seed:11L ~r:1
  in
  ignore (Distance.instance_diameter net);
  let ws = Workspace.get_batch_planes ~n in
  check_bool "arrival matrix still un-grown" true
    (Array.length ws.lane_arrival < n)

(* The arrival-matrix lane budget: full words while n * lanes fits
   2^20 words, fewer lanes beyond, never none — so the matrix scratch
   of a sweep is at most max(2^20, n) words on either backend. *)
let arrival_lanes_budget () =
  check_int "full word at n = 1" Batch.lane_width (Batch.arrival_lanes ~n:1);
  check_int "full word at n = 16 644" Batch.lane_width
    (Batch.arrival_lanes ~n:16_644);
  check_int "fewer lanes at n = 16 645" (Batch.lane_width - 1)
    (Batch.arrival_lanes ~n:16_645);
  check_int "one lane at n = 2^20" 1 (Batch.arrival_lanes ~n:(1 lsl 20));
  check_int "never below one" 1 (Batch.arrival_lanes ~n:100_000_000);
  let prev = ref Batch.lane_width in
  List.iter
    (fun n ->
      let lanes = Batch.arrival_lanes ~n in
      check_bool (Printf.sprintf "lanes in range at n=%d" n) true
        (lanes >= 1 && lanes <= Batch.lane_width);
      check_bool (Printf.sprintf "matrix within budget at n=%d" n) true
        (n * lanes <= Stdlib.max (1 lsl 20) n);
      check_bool (Printf.sprintf "non-increasing at n=%d" n) true (lanes <= !prev);
      prev := lanes)
    [ 1; 2; 63; 1_000; 16_644; 16_645; 20_000; 100_000; 524_288; 1 lsl 20;
      (1 lsl 20) + 1; 10_000_000 ]

let suites =
  [
    ( "implicit",
      [
        case "arithmetic shapes = CSR twins" shapes_match_csr;
        oracle_labels;
        oracle_foremost;
        oracle_consumers;
        oracle_batch_sweep;
        oracle_batched_consumers;
        oracle_flooding;
        oracle_full_prefix;
        oracle_extend_all;
        oracle_journeys;
        case "implicit assignment constructors" assignment_constructors;
        case "boundary cases" boundary_cases;
        case "packed-arc vertex bound" vertex_bound;
        case "whole-stream accessors refuse implicit" whole_stream_errors;
        case "label hash site-independent" site_independence;
        case "planes workspace stays O(n) words" workspace_planes_sizing;
        case "arrival-lane budget" arrival_lanes_budget;
      ] );
  ]
