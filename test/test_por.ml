(* Tests for Por (Definition 8) and Lifetime (Theorem 5 helpers). *)

open Helpers
module Graph = Sgraph.Graph
module Gen = Sgraph.Gen
open Temporal

(* --------------------------------------------------------------- *)
(* Por *)

let whp_target_value () =
  check_float ~eps:1e-12 "1 - 1/n" 0.9 (Por.whp_target ~n:10)

let price_value () =
  check_float ~eps:1e-12 "m r / opt" 7.5 (Por.price ~m:5 ~r:3 ~opt:2)

let success_probability_extremes () =
  let g = Gen.star 8 in
  (* r = 0: no labels at all, never reachable. *)
  check_float "r = 0 fails" 0.
    (Por.success_probability (rng ()) g ~a:8 ~r:0 ~trials:10);
  (* r = 200 on a = 8: every edge ends up with every label whp. *)
  check_float "huge r succeeds" 1.
    (Por.success_probability (rng ()) g ~a:8 ~r:200 ~trials:10)

let success_probability_monotone_coarse () =
  let g = Gen.star 16 in
  let p_at r = Por.success_probability (rng ()) g ~a:16 ~r ~trials:60 in
  let low = p_at 1 and high = p_at 32 in
  check_bool
    (Printf.sprintf "p(1)=%.2f < p(32)=%.2f" low high)
    true (low < high)

let min_r_star () =
  let g = Gen.star 16 in
  match Por.min_r (rng ()) g ~a:16 ~target:0.9 ~trials:25 with
  | None -> Alcotest.fail "min_r should exist on a star"
  | Some est ->
    check_bool "r in a plausible band" true (est.r >= 2 && est.r <= 64);
    check_bool "measured rate near target" true (est.success_rate >= 0.7);
    check_int "trials recorded" 25 est.trials;
    check_float ~eps:1e-12 "target recorded" 0.9 est.target;
    check_bool "ci brackets rate" true
      (est.ci.lo <= est.success_rate && est.success_rate <= est.ci.hi)

let min_r_monotone_in_target () =
  (* A strictly easier target can only need fewer or equal labels
     (up to Monte-Carlo noise; use the same seed stream and wide gap). *)
  let g = Gen.star 32 in
  let easy = Por.min_r (Prng.Rng.create 5) g ~a:32 ~target:0.5 ~trials:30 in
  let hard = Por.min_r (Prng.Rng.create 5) g ~a:32 ~target:0.97 ~trials:30 in
  match (easy, hard) with
  | Some e, Some h ->
    check_bool
      (Printf.sprintf "r(0.5)=%d <= r(0.97)=%d" e.r h.r)
      true (e.r <= h.r)
  | _ -> Alcotest.fail "both searches should succeed"

let min_r_cap_returns_none () =
  (* A long path with a tiny cap: unreachable target. *)
  let g = Gen.path 16 in
  check_bool "capped search fails" true
    (Por.min_r ~r_max:1 (rng ()) g ~a:16 ~target:0.99 ~trials:10 = None)

let min_r_validations () =
  let g = Gen.star 4 in
  Alcotest.check_raises "bad target"
    (Invalid_argument "Por.min_r: target must be in (0,1]") (fun () ->
      ignore (Por.min_r (rng ()) g ~a:4 ~target:1.5 ~trials:5));
  Alcotest.check_raises "bad trials"
    (Invalid_argument "Por.min_r: trials must be positive") (fun () ->
      ignore (Por.min_r (rng ()) g ~a:4 ~target:0.5 ~trials:0))

let report_consistency () =
  let g = Gen.star 16 in
  match Por.report (rng ()) ~name:"star" g ~a:16 ~target:0.9 ~trials:20 with
  | None -> Alcotest.fail "report should exist"
  | Some report ->
    check_int "n" 16 report.n;
    check_int "m" 15 report.m;
    check_int "star OPT exact" 30 report.opt_upper;
    check_int "lower bound" 15 report.opt_lower;
    check_bool "por ordering" true (report.por_lower <= report.por_upper);
    check_float ~eps:1e-9 "por lower uses opt upper"
      (Por.price ~m:15 ~r:report.estimate.r ~opt:30)
      report.por_lower;
    check_float ~eps:1e-9 "thm7 for diameter 2"
      (Stats.Bounds.thm7_labels ~diameter:2 ~n:16)
      report.thm7_bound

let report_uses_spanning_tree_bound () =
  let g = Gen.grid 3 3 in
  match Por.report (rng ()) ~name:"grid" g ~a:9 ~target:0.5 ~trials:10 with
  | None -> Alcotest.fail "grid search should succeed at target 0.5"
  | Some report -> check_int "2(n-1) for non-star" 16 report.opt_upper

(* --------------------------------------------------------------- *)
(* Lifetime *)

let prefix_graph_filters () =
  let net = fixture () in
  (* Labels' minima per edge: {0,1}:2 {1,2}:5 {1,3}:3 {0,4}:1 {3,4}:4 {2,4}:2. *)
  let at k = Graph.m (Lifetime.prefix_graph net ~k) in
  check_int "k=0" 0 (at 0);
  check_int "k=1" 1 (at 1);
  check_int "k=2" 3 (at 2);
  check_int "k=5" 6 (at 5)

let prefix_connectivity_witness () =
  let net = fixture () in
  match Lifetime.prefix_connectivity_time net with
  | None -> Alcotest.fail "fixture prefix connects"
  | Some k ->
    check_bool "connected at k" true
      (Sgraph.Components.is_connected (Lifetime.prefix_graph net ~k));
    check_bool "not connected at k-1" false
      (Sgraph.Components.is_connected (Lifetime.prefix_graph net ~k:(k - 1)))

let prefix_connectivity_none () =
  let g = Graph.create Undirected ~n:4 [ (0, 1); (2, 3) ] in
  let net = Tgraph.create g ~lifetime:3 [| Label.singleton 1; Label.singleton 2 |] in
  check_bool "disconnected underlying graph" true
    (Lifetime.prefix_connectivity_time net = None)

let lifetime_bound () =
  check_float ~eps:1e-9 "(a/n) ln n" (2. *. log 16.)
    (Lifetime.lower_bound ~n:16 ~a:32)

let prefix_time_lower_bounds_diameter =
  qcase ~count:40 "prefix connectivity time <= instance diameter"
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 5000)
    (fun seed ->
      let g = Gen.clique Directed 12 in
      let net = Assignment.uniform_single (Prng.Rng.create seed) g ~a:12 in
      match
        (Lifetime.prefix_connectivity_time net, Distance.instance_diameter net)
      with
      | Some k, Some td -> k <= td
      | _ -> false (* the clique always connects and always has a diameter *))

let suites =
  [
    ( "temporal.por",
      [
        case "whp target" whp_target_value;
        case "price" price_value;
        case "success probability extremes" success_probability_extremes;
        case "success probability monotone" success_probability_monotone_coarse;
        case "min_r on star" min_r_star;
        case "min_r monotone in target" min_r_monotone_in_target;
        case "min_r cap" min_r_cap_returns_none;
        case "min_r validations" min_r_validations;
        case "report consistency" report_consistency;
        case "report spanning-tree bound" report_uses_spanning_tree_bound;
      ] );
    ( "temporal.lifetime",
      [
        case "prefix graph filters" prefix_graph_filters;
        case "prefix connectivity witness" prefix_connectivity_witness;
        case "prefix connectivity none" prefix_connectivity_none;
        case "bound value" lifetime_bound;
        prefix_time_lower_bounds_diameter;
      ] );
  ]
