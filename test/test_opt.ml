(* Tests for the deterministic OPT-side assignments (paper sections 4-5). *)

open Helpers
module Graph = Sgraph.Graph
module Gen = Sgraph.Gen
open Temporal

(* --------------------------------------------------------------- *)
(* Recognisers *)

let recognise_clique () =
  check_bool "directed clique" true (Opt.is_clique (Gen.clique Directed 5));
  check_bool "undirected clique" true (Opt.is_clique (Gen.clique Undirected 5));
  check_bool "path is not" false (Opt.is_clique (Gen.path 5));
  check_bool "K2" true (Opt.is_clique (Gen.clique Undirected 2))

let recognise_star () =
  check_bool "star" true (Opt.is_star (Gen.star 6));
  check_bool "K2 is a star" true (Opt.is_star (Gen.star 2));
  check_bool "path is not" false (Opt.is_star (Gen.path 5));
  check_bool "cycle is not" false (Opt.is_star (Gen.cycle 4))

(* --------------------------------------------------------------- *)
(* Clique: 1 label per edge *)

let clique_single g = Assignment.constant g ~a:1 (Label.singleton 1)

let clique_single_works () =
  let net = clique_single (Gen.clique Directed 6) in
  check_bool "treach" true (Reachability.treach net);
  check_int "OPT = m labels" (6 * 5) (Tgraph.label_count net)

let clique_single_undirected () =
  let net = clique_single (Gen.clique Undirected 6) in
  check_bool "treach" true (Reachability.treach net);
  check_int "OPT = m labels" 15 (Tgraph.label_count net)

(* --------------------------------------------------------------- *)
(* Star: 2 labels per edge *)

let star_two_works () =
  let net = Opt.star_two_labels (Gen.star 9) in
  check_bool "treach" true (Reachability.treach net);
  check_int "2m labels" 16 (Tgraph.label_count net);
  check_int "value helper" 16 (Opt.star_value ~n:9)

let star_two_rejects () =
  Alcotest.check_raises "not a star"
    (Invalid_argument "Opt.star_two_labels: not a star with centre 0")
    (fun () -> ignore (Opt.star_two_labels (Gen.cycle 5)))

(* One label per star edge can never work for n >= 4: some leaf pair gets
   a non-increasing pair of labels in one direction.  (The paper notes one
   label per edge suffices only for the clique.) *)
let star_one_label_insufficient () =
  let g = Gen.star 4 in
  (* Try every single-label assignment over {1,2}^3 — none preserves
     reachability. *)
  let ok = ref false in
  for l0 = 1 to 2 do
    for l1 = 1 to 2 do
      for l2 = 1 to 2 do
        let net =
          Tgraph.create g ~lifetime:2
            [| Label.singleton l0; Label.singleton l1; Label.singleton l2 |]
        in
        if Reachability.treach net then ok := true
      done
    done
  done;
  check_bool "no single-label assignment works" false !ok

(* --------------------------------------------------------------- *)
(* Trees: up/down scheme.  On a tree the BFS spanning tree is the tree
   itself, so [spanning_tree_upper] labels every edge, rooted at 0. *)

let tree_scheme_path () =
  let g = Gen.path 6 in
  let net = Opt.spanning_tree_upper g in
  check_bool "treach" true (Reachability.treach net);
  check_int "2 labels per edge" (2 * 5) (Tgraph.label_count net);
  check_int "lifetime 2h" 10 (Tgraph.lifetime net)

let tree_scheme_star_matches () =
  (* On a star rooted at the centre the scheme degenerates to {1,2}. *)
  let net = Opt.spanning_tree_upper (Gen.star 5) in
  check_bool "treach" true (Reachability.treach net);
  check_int "lifetime 2" 2 (Tgraph.lifetime net)

let tree_scheme_binary () =
  let net = Opt.spanning_tree_upper (Gen.binary_tree 15) in
  check_bool "treach" true (Reachability.treach net)

let tree_scheme_off_root () =
  (* A root inside the path still works: the path 1-2-3-0-4-5-6 puts
     vertex 0 in the middle. *)
  let g =
    Graph.create Undirected ~n:7 [ (1, 2); (2, 3); (3, 0); (0, 4); (4, 5); (5, 6) ]
  in
  let net = Opt.spanning_tree_upper g in
  check_bool "treach" true (Reachability.treach net)

let tree_scheme_random_trees =
  qcase ~count:60 "up/down scheme preserves reachability on random trees"
    ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
    gen_tree_params
    (fun (n, seed) ->
      let n = max 2 n in
      let g = Gen.random_tree (Prng.Rng.create seed) n in
      let net = Opt.spanning_tree_upper g in
      Reachability.treach net && Tgraph.label_count net = 2 * (n - 1))

(* --------------------------------------------------------------- *)
(* Spanning-tree certificate for general graphs *)

let spanning_tree_upper_families () =
  List.iter
    (fun (name, g) ->
      let net = Opt.spanning_tree_upper g in
      check_bool (name ^ " treach") true (Reachability.treach net);
      check_int
        (name ^ " total = 2(n-1)")
        (2 * (Graph.n g - 1))
        (Tgraph.label_count net))
    [
      ("grid", Gen.grid 4 4);
      ("hypercube", Gen.hypercube 4);
      ("wheel", Gen.wheel 8);
      ("barbell", Gen.barbell 4);
      ("clique", Gen.clique Undirected 6);
    ]

let spanning_tree_upper_rejects_disconnected () =
  let g = Graph.create Undirected ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Opt.spanning_tree_upper: disconnected graph")
    (fun () -> ignore (Opt.spanning_tree_upper g))

let spanning_tree_random_graphs =
  qcase ~count:60 "spanning-tree certificate on random connected graphs"
    ~print:print_params gen_params
    (fun (n, seed, _, _) ->
      let g = random_graph ~n ~seed in
      if not (Sgraph.Components.is_connected g) then true
      else Reachability.treach (Opt.spanning_tree_upper g))

(* --------------------------------------------------------------- *)
(* Claim 1 boxes *)

let boxes_families () =
  List.iter
    (fun (name, g) ->
      let d = Sgraph.Metrics.diameter g in
      let q = Stdlib.max d (Graph.n g) in
      let net = Opt.boxes g ~q in
      check_bool (name ^ " treach") true (Reachability.treach net);
      check_int (name ^ " d labels per edge") (d * Graph.m g)
        (Tgraph.label_count net))
    [
      ("path", Gen.path 7);
      ("cycle", Gen.cycle 8);
      ("grid", Gen.grid 3 5);
      ("star", Gen.star 9);
      ("binary tree", Gen.binary_tree 10);
    ]

let boxes_rejects_small_lifetime () =
  Alcotest.check_raises "q below diameter"
    (Invalid_argument "Opt.boxes: lifetime q below the diameter") (fun () ->
      ignore (Opt.boxes (Gen.path 8) ~q:3))

let boxes_rejects_disconnected () =
  let g = Graph.create Undirected ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Opt.boxes: disconnected graph") (fun () ->
      ignore (Opt.boxes g ~q:4))

let boxes_custom_pick () =
  (* Claim 1 holds for ANY within-box choice; pick pseudo-randomly. *)
  let g = Gen.grid 3 3 in
  let pick ~edge ~box ~lo ~hi =
    let width = hi - lo in
    lo + 1 + ((edge * 7) + (box * 13)) mod width
  in
  let net = Opt.boxes ~pick g ~q:16 in
  check_bool "treach with arbitrary picks" true (Reachability.treach net)

let boxes_pick_must_stay_inside () =
  let g = Gen.path 4 in
  Alcotest.check_raises "escaping pick"
    (Invalid_argument "Opt.boxes: pick left its box") (fun () ->
      ignore (Opt.boxes ~pick:(fun ~edge:_ ~box:_ ~lo:_ ~hi -> hi + 1) g ~q:9))

let boxes_shortest_paths_are_journeys =
  qcase ~count:40 "boxes make every BFS shortest path a journey"
    ~print:print_params gen_params
    (fun (n, seed, _, _) ->
      let g = random_graph ~n ~seed in
      if not (Sgraph.Components.is_connected g) then true
      else begin
        let d = Stdlib.max 1 (Sgraph.Metrics.diameter g) in
        let net = Opt.boxes g ~q:(d * 3) in
        Reachability.treach net
      end)

(* --------------------------------------------------------------- *)
(* §4.1: "the clique is the only graph for which temporal reachability
   is guaranteed even with 1 label per edge".  Two oracles check it. *)

(* For a non-clique with some statically-joined non-adjacent pair, the
   all-ones assignment is a counterexample (equal labels never chain).
   [None] for cliques and for graphs where no non-adjacent pair is
   statically connected. *)
let single_label_counterexample g =
  let net = clique_single g in
  if Reachability.treach net then None else Some net

(* Does every assignment of one label from {1..a} per edge preserve
   reachability?  Cost a^m, so small fixtures only (guarded at
   a^m <= 100_000). *)
let single_label_always_preserves g ~a =
  let m = Graph.m g in
  let combos =
    let rec power acc k = if k = 0 then acc else power (acc * a) (k - 1) in
    power 1 m
  in
  if combos > 100_000 then
    invalid_arg "single_label_always_preserves: a^m too large";
  let labels = Array.make m 1 in
  let rec enumerate e =
    if e = m then
      Reachability.treach
        (Assignment.of_fun g ~a (fun i -> Label.singleton labels.(i)))
    else begin
      let ok = ref true in
      let l = ref 1 in
      while !ok && !l <= a do
        labels.(e) <- !l;
        if not (enumerate (e + 1)) then ok := false;
        incr l
      done;
      !ok
    end
  in
  m = 0 || enumerate 0

let single_label_uniqueness () =
  check_bool "K3 always works" true
    (single_label_always_preserves (Gen.clique Undirected 3) ~a:3);
  check_bool "K4 with a=2" true
    (single_label_always_preserves (Gen.clique Undirected 4) ~a:2);
  check_bool "directed K3" true
    (single_label_always_preserves (Gen.clique Directed 3) ~a:2);
  check_bool "path fails" false
    (single_label_always_preserves (Gen.path 3) ~a:3);
  check_bool "star fails" false
    (single_label_always_preserves (Gen.star 4) ~a:2);
  check_bool "cycle fails" false
    (single_label_always_preserves (Gen.cycle 4) ~a:2)

let single_label_counterexample_cases () =
  check_bool "clique has none" true
    (single_label_counterexample (Gen.clique Undirected 5) = None);
  (match single_label_counterexample (Gen.star 5) with
  | None -> Alcotest.fail "star must have a counterexample"
  | Some net ->
    check_bool "counterexample indeed breaks Treach" false
      (Reachability.treach net));
  (* No statically-connected non-adjacent pair: nothing to break. *)
  let isolated = Graph.create Undirected ~n:3 [] in
  check_bool "edgeless graph has none" true
    (single_label_counterexample isolated = None)

let single_label_guard () =
  Alcotest.check_raises "a^m blow-up guarded"
    (Invalid_argument "single_label_always_preserves: a^m too large")
    (fun () ->
      ignore (single_label_always_preserves (Gen.clique Undirected 8) ~a:10))

let single_label_matches_is_clique =
  qcase ~count:40 "exhaustive check agrees with is_clique (a = 2)"
    ~print:print_params gen_small_nets
    (fun (n, seed, _, _) ->
      let g = random_graph ~n ~seed in
      if Graph.m g > 12 then true
      else if not (Sgraph.Components.is_connected g) then true
      else single_label_always_preserves g ~a:2 = Opt.is_clique g)

(* --------------------------------------------------------------- *)
(* Bounds *)

let opt_bounds () =
  let g = Gen.grid 4 4 in
  check_int "lower n-1" 15 (Opt.lower_bound g);
  check_int "upper 2(n-1)" 30 (Opt.upper_bound g);
  check_int "clique value" (Graph.m (Gen.clique Undirected 5))
    (Opt.clique_value (Gen.clique Undirected 5))

let suites =
  [
    ( "temporal.opt.recognisers",
      [
        case "clique" recognise_clique;
        case "star" recognise_star;
      ] );
    ( "temporal.opt.schemes",
      [
        case "clique single label" clique_single_works;
        case "clique single undirected" clique_single_undirected;
        case "star two labels" star_two_works;
        case "star two rejects" star_two_rejects;
        case "star one label insufficient" star_one_label_insufficient;
        case "tree scheme on path" tree_scheme_path;
        case "tree scheme on star" tree_scheme_star_matches;
        case "tree scheme on binary tree" tree_scheme_binary;
        case "tree scheme off-root" tree_scheme_off_root;
        tree_scheme_random_trees;
        case "spanning tree families" spanning_tree_upper_families;
        case "spanning tree rejects disconnected"
          spanning_tree_upper_rejects_disconnected;
        spanning_tree_random_graphs;
      ] );
    ( "temporal.opt.boxes",
      [
        case "families" boxes_families;
        case "rejects small lifetime" boxes_rejects_small_lifetime;
        case "rejects disconnected" boxes_rejects_disconnected;
        case "custom pick" boxes_custom_pick;
        case "pick must stay inside" boxes_pick_must_stay_inside;
        boxes_shortest_paths_are_journeys;
        case "bounds" opt_bounds;
      ] );
    ( "temporal.opt.single_label",
      [
        case "uniqueness of the clique" single_label_uniqueness;
        case "counterexamples" single_label_counterexample_cases;
        case "guard" single_label_guard;
        single_label_matches_is_clique;
      ] );
  ]
