(* Tests for lib/sgraph: graphs, generators, traversal, connectivity. *)

open Helpers
module Graph = Sgraph.Graph
module Gen = Sgraph.Gen
module Traverse = Sgraph.Traverse
module Metrics = Sgraph.Metrics
module Components = Sgraph.Components
module Unionfind = Sgraph.Unionfind

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

(* --------------------------------------------------------------- *)
(* Graph *)

let graph_basic_directed () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  check_int "n" 3 (Graph.n g);
  check_int "m" 3 (Graph.m g);
  check_int "arc_count" 3 (Graph.arc_count g);
  check_bool "directed" true (Graph.is_directed g);
  Alcotest.(check (array int)) "out 0" [| 1 |] (Graph.out_neighbors g 0);
  Alcotest.(check (array int)) "in 0" [| 2 |] (Array.map snd (Graph.in_arcs g 0));
  check_int "out deg" 1 (Graph.out_degree g 0);
  check_int "in deg" 1 (Graph.in_degree g 0)

let graph_basic_undirected () =
  let g = Graph.create Undirected ~n:3 [ (2, 0); (0, 1) ] in
  check_int "m" 2 (Graph.m g);
  check_int "arc_count" 4 (Graph.arc_count g);
  Alcotest.(check (array int)) "neighbors of 0 (both)" [| 1; 2 |]
    (sorted (Graph.out_neighbors g 0));
  check_bool "mem both ways" true (Graph.mem_edge g 1 0 && Graph.mem_edge g 0 1);
  Alcotest.(check (pair int int)) "normalised endpoints" (0, 2)
    (Graph.edge_endpoints g 0)

let graph_validations () =
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  ignore raises;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: endpoint out of range (0,5)") (fun () ->
      ignore (Graph.create Directed ~n:3 [ (0, 5) ]));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.create: self-loop") (fun () ->
      ignore (Graph.create Directed ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.create: duplicate edge") (fun () ->
      ignore (Graph.create Directed ~n:3 [ (0, 1); (0, 1) ]));
  Alcotest.check_raises "duplicate after normalisation"
    (Invalid_argument "Graph.create: duplicate edge") (fun () ->
      ignore (Graph.create Undirected ~n:3 [ (0, 1); (1, 0) ]))

let graph_directed_antiparallel_ok () =
  let g = Graph.create Directed ~n:2 [ (0, 1); (1, 0) ] in
  check_int "two arcs" 2 (Graph.m g)

let graph_find_edge () =
  let g = Graph.create Directed ~n:3 [ (0, 1) ] in
  check_int_option "forward" (Some 0) (Graph.find_edge g 0 1);
  check_int_option "no backward arc" None (Graph.find_edge g 1 0)

let graph_reverse () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let r = Graph.reverse g in
  check_bool "reversed arc" true (Graph.mem_edge r 1 0);
  check_bool "old direction gone" false (Graph.mem_edge r 0 1);
  Alcotest.(check (pair int int)) "edge id preserved" (1, 0)
    (Graph.edge_endpoints r 0);
  (* Reversing twice restores the original arcs. *)
  let rr = Graph.reverse r in
  check_bool "double reverse" true (Graph.mem_edge rr 0 1)

let graph_reverse_undirected_identity () =
  let g = Gen.cycle 5 in
  check_bool "same structure" true (Graph.reverse g == g)

let graph_iter_edges () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let seen = ref [] in
  Graph.iter_edges g (fun e u v -> seen := (e, u, v) :: !seen);
  Alcotest.(check (list (triple int int int))) "all edges"
    [ (1, 1, 2); (0, 0, 1) ] !seen

let graph_out_arcs () =
  let g = Graph.create Undirected ~n:3 [ (0, 1); (0, 2) ] in
  let arcs = Graph.out_arcs g 0 in
  check_int "two arcs out" 2 (Array.length arcs);
  Array.iter
    (fun (e, target) ->
      Alcotest.(check (pair int int)) "edge id matches endpoints"
        (Graph.edge_endpoints g e)
        (0, target))
    arcs

(* --------------------------------------------------------------- *)
(* Generators *)

let gen_clique_directed () =
  let g = Gen.clique Directed 5 in
  check_int "m = n(n-1)" 20 (Graph.m g);
  for v = 0 to 4 do
    check_int "out degree" 4 (Graph.out_degree g v);
    check_int "in degree" 4 (Graph.in_degree g v)
  done

let gen_clique_undirected () =
  let g = Gen.clique Undirected 5 in
  check_int "m = n(n-1)/2" 10 (Graph.m g);
  check_int "degree" 4 (Graph.out_degree g 2)

let gen_clique_trivial () =
  check_int "K1 has no edges" 0 (Graph.m (Gen.clique Directed 1))

let gen_star () =
  let g = Gen.star 6 in
  check_int "m" 5 (Graph.m g);
  check_int "centre degree" 5 (Graph.out_degree g 0);
  for leaf = 1 to 5 do
    check_int "leaf degree" 1 (Graph.out_degree g leaf)
  done

(* The clique, star and grid are arithmetic shapes: building one at any
   size allocates a few words, not an O(n + m) CSR.  Cheapest first, so
   a CSR build fails before it reaches the directed clique's ~800 MB. *)
let gen_shapes_allocate_constant () =
  List.iter
    (fun (name, build) ->
      let _, words = allocated_words build in
      check_bool (Printf.sprintf "%s: %.0f words" name words) true (words <= 64.))
    [
      ("grid 1000x1000", fun () -> Gen.grid 1000 1000);
      ("star 1_000_000", fun () -> Gen.star 1_000_000);
      ("clique undirected 4096", fun () -> Gen.clique Undirected 4096);
      ("clique directed 4096", fun () -> Gen.clique Directed 4096);
    ]

let gen_path_cycle () =
  let p = Gen.path 5 in
  check_int "path m" 4 (Graph.m p);
  check_int "path end degree" 1 (Graph.out_degree p 0);
  check_int "path mid degree" 2 (Graph.out_degree p 2);
  let c = Gen.cycle 5 in
  check_int "cycle m" 5 (Graph.m c);
  for v = 0 to 4 do
    check_int "cycle degree" 2 (Graph.out_degree c v)
  done

let gen_grid () =
  let g = Gen.grid 3 4 in
  check_int "n" 12 (Graph.n g);
  check_int "m = r(c-1)+c(r-1)" ((3 * 3) + (4 * 2)) (Graph.m g);
  check_int "corner degree" 2 (Graph.out_degree g 0);
  check_bool "connected" true (Components.is_connected g)

let gen_hypercube () =
  let g = Gen.hypercube 4 in
  check_int "n = 2^d" 16 (Graph.n g);
  check_int "m = d*2^(d-1)" 32 (Graph.m g);
  for v = 0 to 15 do
    check_int "regular" 4 (Graph.out_degree g v)
  done;
  check_int "diameter = d" 4 (Metrics.diameter g);
  (* Edge 0 is the last pair emitted (v ascending, then bit ascending),
     the numbering label draws go by. *)
  Alcotest.(check (pair int int)) "edge 0" (14, 15) (Graph.edge_endpoints g 0);
  Alcotest.(check (pair int int)) "last edge" (0, 1) (Graph.edge_endpoints g 31)

let gen_binary_tree () =
  let g = Gen.binary_tree 7 in
  check_int "m = n-1" 6 (Graph.m g);
  check_int "root degree" 2 (Graph.out_degree g 0);
  check_bool "connected" true (Components.is_connected g)

let gen_wheel () =
  let g = Gen.wheel 6 in
  check_int "m = 2(n-1)" 10 (Graph.m g);
  check_int "hub degree" 5 (Graph.out_degree g 0);
  check_int "rim degree" 3 (Graph.out_degree g 1);
  check_int "diameter" 2 (Metrics.diameter g)

let gen_barbell () =
  let g = Gen.barbell 4 in
  check_int "n" 8 (Graph.n g);
  check_int "m = 2*C(4,2)+1" 13 (Graph.m g);
  check_bool "bridge" true (Graph.mem_edge g 3 4);
  check_bool "connected" true (Components.is_connected g)

let gen_random_tree =
  qcase "random tree is a spanning tree" ~print:print_params
    gen_params
    (fun (n, seed, _, _) ->
      let g = Gen.random_tree (Prng.Rng.create seed) n in
      Graph.n g = n && Graph.m g = n - 1 && Components.is_connected g)

let gen_random_tree_larger () =
  let g = Gen.random_tree (rng ()) 100 in
  check_int "m" 99 (Graph.m g);
  check_bool "connected" true (Components.is_connected g)

let gen_gnp_extremes () =
  let empty = Gen.gnp (rng ()) ~n:10 ~p:0. in
  check_int "p=0 empty" 0 (Graph.m empty);
  let full = Gen.gnp (rng ()) ~n:10 ~p:1. in
  check_int "p=1 complete" 45 (Graph.m full)

let gen_gnp_density () =
  let total = ref 0 in
  let trials = 50 in
  let g0 = rng () in
  for _ = 1 to trials do
    total := !total + Graph.m (Gen.gnp (Prng.Rng.split g0) ~n:40 ~p:0.3)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let expected = 0.3 *. float_of_int (40 * 39 / 2) in
  check_bool "edge count near p*C(n,2)" true
    (abs_float (mean -. expected) < 0.1 *. expected)

let gen_barabasi_albert () =
  let n = 60 and m = 3 in
  let g = Gen.barabasi_albert (rng ()) ~n ~m in
  check_int "n" n (Graph.n g);
  check_int "edge count" ((m * (m + 1) / 2) + ((n - m - 1) * m)) (Graph.m g);
  check_bool "connected" true (Components.is_connected g);
  (* Preferential attachment concentrates degree on early vertices. *)
  let degrees = Array.init n (Graph.out_degree g) in
  let max_degree = Array.fold_left Stdlib.max 0 degrees in
  check_bool "hubs emerge" true (max_degree >= 3 * m);
  (* Every late vertex has degree >= m. *)
  for v = m + 1 to n - 1 do
    check_bool "attachment degree" true (degrees.(v) >= m)
  done

let gen_barabasi_invalid () =
  Alcotest.check_raises "m = 0"
    (Invalid_argument "Gen.barabasi_albert: need 1 <= m < n") (fun () ->
      ignore (Gen.barabasi_albert (rng ()) ~n:5 ~m:0));
  Alcotest.check_raises "m >= n"
    (Invalid_argument "Gen.barabasi_albert: need 1 <= m < n") (fun () ->
      ignore (Gen.barabasi_albert (rng ()) ~n:5 ~m:5))

let gen_watts_strogatz_lattice () =
  (* beta = 0: the pure ring lattice, 2k-regular. *)
  let g = Gen.watts_strogatz (rng ()) ~n:20 ~k:2 ~beta:0. in
  check_int "m = n*k" 40 (Graph.m g);
  for v = 0 to 19 do
    check_int "2k-regular" 4 (Graph.out_degree g v)
  done;
  check_bool "connected" true (Components.is_connected g)

let gen_watts_strogatz_rewired () =
  let g = Gen.watts_strogatz (rng ()) ~n:40 ~k:3 ~beta:0.3 in
  check_int "edge count preserved" 120 (Graph.m g);
  (* Rewiring shortens paths: the small-world diameter sits well below
     the lattice's n/(2k) = 6.67-ish bound... compare loosely. *)
  let lattice = Gen.watts_strogatz (rng ()) ~n:40 ~k:3 ~beta:0. in
  check_bool "not slower than the lattice" true
    (Components.is_connected g = false
     || Metrics.diameter g <= Metrics.diameter lattice + 1)

let gen_watts_strogatz_invalid () =
  Alcotest.check_raises "k too large"
    (Invalid_argument "Gen.watts_strogatz: need 2k < n - 1") (fun () ->
      ignore (Gen.watts_strogatz (rng ()) ~n:6 ~k:3 ~beta:0.1));
  Alcotest.check_raises "beta range"
    (Invalid_argument "Gen.watts_strogatz: beta not in [0,1]") (fun () ->
      ignore (Gen.watts_strogatz (rng ()) ~n:10 ~k:2 ~beta:1.5))

(* --------------------------------------------------------------- *)
(* Traverse *)

let bfs_path () =
  let g = Gen.path 5 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |]
    (Traverse.bfs g 0)

let bfs_directed_one_way () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check (array int)) "forward" [| 0; 1; 2 |] (Traverse.bfs g 0);
  let back = Traverse.bfs g 2 in
  check_int "unreachable" Traverse.unreachable back.(0)

let bfs_reverse_directed () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check (array int)) "distances to 2" [| 2; 1; 0 |]
    (Traverse.bfs (Graph.reverse g) 2)

let bfs_tree_parents () =
  let g = Gen.path 4 in
  let dist, parent = Traverse.bfs_tree g 0 in
  check_int "root parent" (-1) parent.(0);
  for v = 1 to 3 do
    check_int "parent is one closer" (dist.(v) - 1) dist.(parent.(v))
  done

let reachable_count () =
  let g = Graph.create Directed ~n:4 [ (0, 1); (2, 3) ] in
  let reached s =
    Array.fold_left
      (fun acc d -> if d <> Traverse.unreachable then acc + 1 else acc)
      0 (Traverse.bfs g s)
  in
  check_int "component of 0" 2 (reached 0);
  check_int "component of 2" 2 (reached 2)

let bfs_bad_source () =
  Alcotest.check_raises "source range"
    (Invalid_argument "Traverse.bfs: source out of range") (fun () ->
      ignore (Traverse.bfs (Gen.path 3) 5))

(* --------------------------------------------------------------- *)
(* Unionfind / Components *)

let unionfind_basic () =
  let uf = Unionfind.create 5 in
  check_bool "union merges" true (Unionfind.union uf 0 1);
  check_bool "second union is a no-op" false (Unionfind.union uf 1 0);
  check_bool "same" true (Unionfind.find uf 0 = Unionfind.find uf 1);
  check_bool "not same" false (Unionfind.find uf 0 = Unionfind.find uf 2)

let unionfind_chain () =
  let uf = Unionfind.create 10 in
  for i = 0 to 8 do
    ignore (Unionfind.union uf i (i + 1))
  done;
  check_bool "ends joined" true (Unionfind.find uf 0 = Unionfind.find uf 9)

let components_split () =
  let g = Graph.create Undirected ~n:6 [ (0, 1); (1, 2); (3, 4) ] in
  let comp = Components.components g in
  check_int "count" 3 (Components.component_count g);
  check_bool "0 and 2 together" true (comp.(0) = comp.(2));
  check_bool "0 and 3 apart" true (comp.(0) <> comp.(3));
  check_bool "1 with 0, 4 with 3" true (comp.(1) = comp.(0) && comp.(4) = comp.(3));
  check_bool "5 alone" true (comp.(5) <> comp.(0) && comp.(5) <> comp.(3));
  check_bool "not connected" false (Components.is_connected g)

let components_direction_blind () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (2, 1) ] in
  check_bool "weakly connected" true (Components.is_connected g)

let strongly_connected g =
  let comp = Components.strongly_connected_components g in
  Array.for_all (fun c -> c = comp.(0)) comp

let scc_directed_cycle () =
  let g = Graph.create Directed ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  check_bool "strongly connected" true (strongly_connected g)

let scc_directed_path () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let comp = Components.strongly_connected_components g in
  check_bool "all separate" true
    (comp.(0) <> comp.(1) && comp.(1) <> comp.(2) && comp.(0) <> comp.(2));
  check_bool "not strongly connected" false (strongly_connected g)

let scc_two_cycles () =
  let g =
    Graph.create Directed ~n:6
      [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (0, 3) ]
  in
  let comp = Components.strongly_connected_components g in
  check_bool "cycle 1 together" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  check_bool "cycle 2 together" true (comp.(3) = comp.(4) && comp.(4) = comp.(5));
  check_bool "cycles separate" true (comp.(0) <> comp.(3))

let scc_matches_components_on_undirected =
  qcase "SCC = weak components on undirected graphs" ~print:print_params
    gen_params
    (fun (n, seed, _, _) ->
      let g = random_graph ~n ~seed in
      let weak = Components.components g in
      let strong = Components.strongly_connected_components g in
      (* Same partition up to renaming: equal iff pairwise-same agree. *)
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if weak.(u) = weak.(v) <> (strong.(u) = strong.(v)) then ok := false
        done
      done;
      !ok)

let scc_clique () =
  check_bool "directed clique strongly connected" true
    (strongly_connected (Gen.clique Directed 6))

(* --------------------------------------------------------------- *)
(* Metrics *)

let metrics_known () =
  check_int "path diameter" 4 (Metrics.diameter (Gen.path 5));
  check_int "cycle diameter" 3 (Metrics.diameter (Gen.cycle 6));
  check_int "clique diameter" 1 (Metrics.diameter (Gen.clique Undirected 5));
  check_int "star diameter" 2 (Metrics.diameter (Gen.star 6));
  check_int "star centre eccentricity" 1 (Metrics.eccentricity (Gen.star 6) 0);
  check_int "single vertex" 0 (Metrics.diameter (Gen.path 1))

let metrics_disconnected () =
  let g = Graph.create Undirected ~n:4 [ (0, 1) ] in
  check_int "diameter infinite" Traverse.unreachable (Metrics.diameter g)

let metrics_eccentricity () =
  let g = Gen.path 5 in
  check_int "end" 4 (Metrics.eccentricity g 0);
  check_int "middle" 2 (Metrics.eccentricity g 2)

let metrics_radius_diameter_bounds =
  qcase ~count:80 "radius <= diameter <= 2*radius on connected graphs"
    ~print:print_params gen_params
    (fun (n, seed, _, _) ->
      let g = random_graph ~n ~seed in
      if not (Components.is_connected g) then true
      else begin
        let r = ref max_int in
        for v = 0 to n - 1 do
          r := min !r (Metrics.eccentricity g v)
        done;
        let d = Metrics.diameter g and r = !r in
        r <= d && d <= 2 * r
      end)

let metrics_matrix_symmetric =
  qcase "distance matrix symmetric on undirected graphs" ~print:print_params
    gen_params
    (fun (n, seed, _, _) ->
      let g = random_graph ~n ~seed in
      let d = Array.init n (Traverse.bfs g) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if d.(u).(v) <> d.(v).(u) then ok := false
        done
      done;
      !ok)

let suites =
  [
    ( "sgraph.graph",
      [
        case "directed basics" graph_basic_directed;
        case "undirected basics" graph_basic_undirected;
        case "validations" graph_validations;
        case "antiparallel arcs allowed" graph_directed_antiparallel_ok;
        case "find_edge" graph_find_edge;
        case "reverse" graph_reverse;
        case "reverse undirected identity" graph_reverse_undirected_identity;
        case "iter_edges" graph_iter_edges;
        case "out_arcs edge ids" graph_out_arcs;
      ] );
    ( "sgraph.gen",
      [
        case "clique directed" gen_clique_directed;
        case "clique undirected" gen_clique_undirected;
        case "clique trivial" gen_clique_trivial;
        case "star" gen_star;
        case "clique, star and grid allocate O(1)" gen_shapes_allocate_constant;
        case "path and cycle" gen_path_cycle;
        case "grid" gen_grid;
        case "hypercube" gen_hypercube;
        case "binary tree" gen_binary_tree;
        case "wheel" gen_wheel;
        case "barbell" gen_barbell;
        gen_random_tree;
        case "random tree larger" gen_random_tree_larger;
        case "gnp extremes" gen_gnp_extremes;
        case "gnp density" gen_gnp_density;
        case "barabasi-albert" gen_barabasi_albert;
        case "barabasi invalid" gen_barabasi_invalid;
        case "watts-strogatz lattice" gen_watts_strogatz_lattice;
        case "watts-strogatz rewired" gen_watts_strogatz_rewired;
        case "watts-strogatz invalid" gen_watts_strogatz_invalid;
      ] );
    ( "sgraph.traverse",
      [
        case "bfs path" bfs_path;
        case "bfs directed one-way" bfs_directed_one_way;
        case "bfs reverse" bfs_reverse_directed;
        case "bfs tree parents" bfs_tree_parents;
        case "reachable count" reachable_count;
        case "bfs bad source" bfs_bad_source;
      ] );
    ( "sgraph.components",
      [
        case "unionfind basics" unionfind_basic;
        case "unionfind chain" unionfind_chain;
        case "components split" components_split;
        case "direction blind" components_direction_blind;
        case "scc directed cycle" scc_directed_cycle;
        case "scc directed path" scc_directed_path;
        case "scc two cycles" scc_two_cycles;
        scc_matches_components_on_undirected;
        case "scc clique" scc_clique;
      ] );
    ( "sgraph.metrics",
      [
        case "known diameters" metrics_known;
        case "disconnected" metrics_disconnected;
        case "eccentricity" metrics_eccentricity;
        metrics_radius_diameter_bounds;
        metrics_matrix_symmetric;
      ] );
  ]
