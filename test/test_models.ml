(* Tests for the alternative availability models (Evolving.Edge_markovian,
   Mobility) and for temporal random walks and adversarial jamming. *)

open Helpers
module Graph = Sgraph.Graph
module Em = Evolving.Edge_markovian
open Temporal

(* --------------------------------------------------------------- *)
(* Edge-Markovian evolving graphs *)

let em_create_and_density () =
  let chain = Em.create (rng ()) ~n:40 ~p_up:0.3 ~p_down:0.3 in
  check_int "n" 40 (Em.n chain);
  check_float ~eps:1e-9 "stationary" 0.5 (Em.stationary_density chain);
  let d = Em.density chain in
  check_bool "initial density near stationary" true (d > 0.35 && d < 0.65)

let em_validations () =
  Alcotest.check_raises "bad p_up"
    (Invalid_argument "Edge_markovian.create: p_up not in [0,1]") (fun () ->
      ignore (Em.create (rng ()) ~n:4 ~p_up:1.5 ~p_down:0.5));
  Alcotest.check_raises "degenerate chain"
    (Invalid_argument "Edge_markovian.create: p_up + p_down must be positive")
    (fun () -> ignore (Em.create (rng ()) ~n:4 ~p_up:0. ~p_down:0.))

let em_deterministic_extremes () =
  let full = Em.create ~initial_density:1. (rng ()) ~n:10 ~p_up:1. ~p_down:0. in
  check_float "all edges present" 1. (Em.density full);
  Em.step full;
  check_float "stay present" 1. (Em.density full);
  let empty = Em.create ~initial_density:0. (rng ()) ~n:10 ~p_up:0. ~p_down:1. in
  Em.step empty;
  check_float "stay absent" 0. (Em.density empty)

let em_density_tracks_stationary () =
  let chain =
    Em.create ~initial_density:0. (rng ()) ~n:48 ~p_up:0.3 ~p_down:0.1
  in
  for _ = 1 to 60 do
    Em.step chain
  done;
  let d = Em.density chain in
  check_bool
    (Printf.sprintf "density %.2f near stationary 0.75" d)
    true
    (abs_float (d -. 0.75) < 0.08)

let em_flood_dense () =
  let chain = Em.create (rng ()) ~n:32 ~p_up:0.5 ~p_down:0.5 in
  let result = Em.flood chain ~source:0 in
  check_bool "completed" true result.completed;
  check_int "everyone informed" 32 result.informed;
  check_bool "fast" true (result.rounds <= 10)

let em_flood_frozen_empty () =
  (* No edges ever: flooding cannot progress and must hit the cap. *)
  let chain =
    Em.create ~initial_density:0. (rng ()) ~n:8 ~p_up:0. ~p_down:1.
  in
  let result = Em.flood ~max_rounds:20 chain ~source:3 in
  check_bool "incomplete" true (not result.completed);
  check_int "only the source" 1 result.informed;
  check_int "capped" 20 result.rounds

let em_flood_single_vertex () =
  let chain = Em.create (rng ()) ~n:1 ~p_up:0.5 ~p_down:0.5 in
  let result = Em.flood chain ~source:0 in
  check_bool "trivially done" true result.completed;
  check_int "zero rounds" 0 result.rounds

(* --------------------------------------------------------------- *)
(* Mobility: waypoint + trace *)

let waypoint_basics () =
  let system = Mobility.Waypoint.create (rng ()) ~agents:10 ~size:6 in
  check_int "agents" 10 (Mobility.Waypoint.agents system);
  check_int "size" 6 (Mobility.Waypoint.size system);
  Array.iter
    (fun (x, y) ->
      check_bool "on the torus" true (x >= 0 && x < 6 && y >= 0 && y < 6))
    (Mobility.Waypoint.positions system)

let waypoint_moves_one_cell () =
  let system = Mobility.Waypoint.create (rng ()) ~agents:8 ~size:9 in
  let before = Mobility.Waypoint.positions system in
  Mobility.Waypoint.step system;
  let after = Mobility.Waypoint.positions system in
  Array.iteri
    (fun i (x1, y1) ->
      let x0, y0 = before.(i) in
      let torus_step a b = min ((a - b + 9) mod 9) ((b - a + 9) mod 9) <= 1 in
      check_bool "at most one cell per axis" true
        (torus_step x0 x1 && torus_step y0 y1))
    after

let waypoint_contacts_sorted_and_valid () =
  let system = Mobility.Waypoint.create (rng ()) ~agents:20 ~size:4 in
  let contacts = Mobility.Waypoint.run system ~ticks:30 in
  check_bool "some contacts on a tiny torus" true (contacts <> []);
  let rec check_order = function
    | (a : Mobility.Waypoint.contact) :: (b :: _ as rest) ->
      check_bool "chronological" true (a.time <= b.time);
      check_order rest
    | _ -> ()
  in
  check_order contacts;
  List.iter
    (fun { Mobility.Waypoint.a; b; time } ->
      check_bool "ordered pair" true (a < b);
      check_bool "time in range" true (time >= 1 && time <= 30))
    contacts

let waypoint_validations () =
  Alcotest.check_raises "agents"
    (Invalid_argument "Waypoint.create: need agents >= 1") (fun () ->
      ignore (Mobility.Waypoint.create (rng ()) ~agents:0 ~size:5));
  Alcotest.check_raises "size"
    (Invalid_argument "Waypoint.create: need size >= 2") (fun () ->
      ignore (Mobility.Waypoint.create (rng ()) ~agents:3 ~size:1));
  let system = Mobility.Waypoint.create (rng ()) ~agents:3 ~size:5 in
  Alcotest.check_raises "ticks" (Invalid_argument "Waypoint.run: ticks must be >= 0")
    (fun () -> ignore (Mobility.Waypoint.run system ~ticks:(-1)))

let trace_roundtrip () =
  let contacts =
    [
      { Mobility.Waypoint.a = 0; b = 1; time = 2 };
      { Mobility.Waypoint.a = 0; b = 1; time = 5 };
      { Mobility.Waypoint.a = 1; b = 2; time = 3 };
    ]
  in
  let net = Mobility.Trace.of_contacts ~n:3 ~lifetime:6 contacts in
  check_int "labels" 3 (Tgraph.label_count net);
  check_int_option "journey along the trace" (Some 3)
    (Distance.distance net 0 2);
  let s = Mobility.Trace.stats net in
  check_int "contacts" 3 s.contacts;
  check_int "edges" 2 s.edges;
  check_float ~eps:1e-9 "mean labels" 1.5 s.mean_labels_per_edge;
  check_float ~eps:1e-9 "density" (2. /. 3.) s.density

let trace_rejects_bad_contacts () =
  Alcotest.check_raises "time outside lifetime"
    (Invalid_argument "Trace.of_contacts: contact time outside the lifetime")
    (fun () ->
      ignore
        (Mobility.Trace.of_contacts ~n:3 ~lifetime:2
           [ { Mobility.Waypoint.a = 0; b = 1; time = 5 } ]))

let trace_io_roundtrip () =
  let contacts =
    [
      { Mobility.Waypoint.a = 0; b = 3; time = 1 };
      { Mobility.Waypoint.a = 0; b = 3; time = 4 };
      { Mobility.Waypoint.a = 1; b = 2; time = 4 };
    ]
  in
  (* Already in canonical (time, a, b) order, so the round-trip is the
     identity. *)
  let text = Mobility.Trace.contacts_to_string contacts in
  (match Mobility.Trace.contacts_of_string text with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    check_int "same count" 3 (List.length parsed);
    check_bool "identical after normalisation" true (parsed = contacts))

let trace_io_parses_loose_input () =
  let text = "# a trace\n\n4 2 1\n1 3 0\n" in
  match Mobility.Trace.contacts_of_string text with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    check_int "two events" 2 (List.length parsed);
    (match parsed with
    | first :: _ ->
      check_int "chronological" 1 first.time;
      check_bool "endpoints normalised" true (first.a < first.b)
    | [] -> Alcotest.fail "expected events")

let trace_io_errors () =
  let expect_error text =
    match Mobility.Trace.contacts_of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  expect_error "1 2\n";
  expect_error "0 1 2\n" (* time must be >= 1 *);
  expect_error "3 5 5\n" (* self-contact *);
  expect_error "x 1 2\n"

let trace_load_file () =
  let path = Filename.temp_file "trace" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "1 0 1\n3 1 2\n");
  (match Mobility.Trace.load path with
  | Error e -> Alcotest.fail e
  | Ok net ->
    check_int "n inferred" 3 (Tgraph.n net);
    check_int "lifetime inferred" 3 (Tgraph.lifetime net);
    check_int_option "journey across" (Some 3) (Distance.distance net 0 2));
  (match Mobility.Trace.load ~n:10 ~lifetime:9 path with
  | Error e -> Alcotest.fail e
  | Ok net ->
    check_int "n overridden" 10 (Tgraph.n net);
    check_int "lifetime overridden" 9 (Tgraph.lifetime net));
  Sys.remove path;
  check_bool "missing file is an error" true
    (match Mobility.Trace.load "/nonexistent/trace.txt" with
    | Error _ -> true
    | Ok _ -> false)

let trace_of_waypoint_is_coherent () =
  let net = Mobility.Trace.of_waypoint_run (rng ()) ~agents:16 ~size:5 ~ticks:40 in
  check_int "all agents present" 16 (Tgraph.n net);
  check_int "lifetime = ticks" 40 (Tgraph.lifetime net);
  let s = Mobility.Trace.stats net in
  check_bool "some contacts happened" true (s.contacts > 0);
  check_bool "density within [0,1]" true (s.density >= 0. && s.density <= 1.)

(* --------------------------------------------------------------- *)
(* Walker *)

let walker_deterministic_track () =
  (* One forced move per step: 0-1@1, 1-2@2; the walk must ride them. *)
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 1; Label.singleton 2 |]
  in
  let t = Walker.walk (rng ()) net ~source:0 in
  Alcotest.(check (array int)) "positions" [| 0; 1; 2; 2 |] t.positions;
  check_int "visited all" 3 t.visited;
  check_int_option "covered at step 2" (Some 2) t.cover_time;
  check_int "two moves" 2 t.moves;
  Alcotest.(check (array int)) "first visits" [| 0; 1; 2 |] t.first_visit

let walker_stays_without_options () =
  let g = Graph.create Directed ~n:2 [ (0, 1) ] in
  let net = Tgraph.create g ~lifetime:5 [| Label.empty |] in
  let t = Walker.walk (rng ()) net ~source:0 in
  check_int "never moved" 0 t.moves;
  check_int "alone" 1 t.visited;
  check_bool "no cover" true (t.cover_time = None)

let walker_full_laziness_freezes () =
  let g = Sgraph.Gen.clique Directed 6 in
  let net = Temporal.Assignment.all_times g ~a:10 in
  let t = Walker.walk ~laziness:1. (rng ()) net ~source:2 in
  check_int "frozen" 0 t.moves;
  Array.iter (fun p -> check_int "stays home" 2 p) t.positions

let walker_moves_are_available_arcs =
  qcase ~count:60 "every move follows an arc available at that moment"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let source = 0 in
      let t = Walker.walk (rng ()) net ~source in
      let ok = ref true in
      Array.iteri
        (fun time position ->
          if time > 0 then begin
            let previous = t.positions.(time - 1) in
            if position <> previous then
              if not (Tgraph.can_cross_at net ~src:previous ~dst:position time)
              then ok := false
          end)
        t.positions;
      !ok)

let walker_mean_coverage_sane () =
  let g = Sgraph.Gen.clique Directed 12 in
  let net = Temporal.Assignment.all_times g ~a:100 in
  let coverage, cover_rate = Walker.mean_coverage (rng ()) net ~trials:10 in
  check_bool "high coverage with dense availability" true (coverage > 0.9);
  check_bool "rates in range" true (cover_rate >= 0. && cover_rate <= 1.)

let walker_pack_dominates_single () =
  let g = Sgraph.Gen.clique Directed 16 in
  let net = Temporal.Assignment.all_times g ~a:60 in
  let single = Walker.walk (rng ()) net ~source:0 in
  let joint, cover = Walker.pack (rng ()) net ~sources:[ 0; 5; 10; 15 ] in
  check_bool "joint coverage at least a single walk's" true
    (joint >= single.visited);
  (match cover with
  | Some t -> check_bool "joint cover within lifetime" true (t <= 60)
  | None -> ());
  (* All sources count as visited at step 0. *)
  let visited_only, _ = Walker.pack ~laziness:1. (rng ()) net ~sources:[ 3; 7 ] in
  check_int "frozen pack visits just its sources" 2 visited_only

let walker_validations () =
  let net = fixture () in
  Alcotest.check_raises "bad source"
    (Invalid_argument "Walker.walk: source out of range") (fun () ->
      ignore (Walker.walk (rng ()) net ~source:99));
  Alcotest.check_raises "bad laziness"
    (Invalid_argument "Walker.walk: laziness not in [0,1]") (fun () ->
      ignore (Walker.walk ~laziness:2. (rng ()) net ~source:0))

(* --------------------------------------------------------------- *)
(* Adversary *)

let adversary_budget_zero () =
  let net = fixture () in
  let outcome =
    Adversary.jam (rng ()) net ~budget:0 ~strategy:Adversary.Random_jam
  in
  check_int "nothing cancelled" 0 outcome.cancelled;
  check_int "pairs unchanged" outcome.reachable_before outcome.reachable_after

let adversary_total_budget_destroys () =
  let net = fixture () in
  let total = Tgraph.label_count net in
  let outcome =
    Adversary.jam (rng ()) net ~budget:total ~strategy:Adversary.Random_jam
  in
  check_int "all labels gone" total outcome.cancelled;
  check_int "nothing reachable" 0 outcome.reachable_after;
  check_int "original intact" 20
    (Temporal.Reachability.reachable_pair_count net)

let adversary_never_helps =
  qcase ~count:40 "jamming never increases reachability"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      List.for_all
        (fun strategy ->
          let outcome = Adversary.jam (rng ()) net ~budget:3 ~strategy in
          outcome.reachable_after <= outcome.reachable_before
          && outcome.cancelled <= 3)
        [ Adversary.Random_jam; Adversary.Earliest_first;
          Adversary.Cut_vertex_focus; Adversary.Greedy_damage ])

let adversary_greedy_at_least_random () =
  (* Statistically, the informed adversary should do at least as much
     damage as the blind one on the fixture (exact on this instance). *)
  let net = fixture () in
  let greedy =
    Adversary.jam (rng ()) net ~budget:2 ~strategy:Adversary.Greedy_damage
  in
  let random =
    Adversary.jam (rng ()) net ~budget:2 ~strategy:Adversary.Random_jam
  in
  check_bool "greedy <= random surviving pairs" true
    (greedy.reachable_after <= random.reachable_after)

let adversary_names_and_validation () =
  Alcotest.(check string) "greedy" "greedy"
    (Adversary.strategy_name Adversary.Greedy_damage);
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Adversary.jam: budget must be >= 0") (fun () ->
      ignore
        (Adversary.jam (rng ()) (fixture ()) ~budget:(-1)
           ~strategy:Adversary.Random_jam))

let suites =
  [
    ( "temporal.walker",
      [
        case "deterministic track" walker_deterministic_track;
        case "stays without options" walker_stays_without_options;
        case "full laziness freezes" walker_full_laziness_freezes;
        walker_moves_are_available_arcs;
        case "mean coverage" walker_mean_coverage_sane;
        case "pack" walker_pack_dominates_single;
        case "validations" walker_validations;
      ] );
    ( "temporal.adversary",
      [
        case "budget zero" adversary_budget_zero;
        case "total budget destroys" adversary_total_budget_destroys;
        adversary_never_helps;
        case "greedy at least random" adversary_greedy_at_least_random;
        case "names and validation" adversary_names_and_validation;
      ] );
    ( "mobility",
      [
        case "waypoint basics" waypoint_basics;
        case "moves one cell" waypoint_moves_one_cell;
        case "contacts sorted and valid" waypoint_contacts_sorted_and_valid;
        case "validations" waypoint_validations;
        case "trace roundtrip" trace_roundtrip;
        case "trace rejects bad contacts" trace_rejects_bad_contacts;
        case "trace io roundtrip" trace_io_roundtrip;
        case "trace io loose input" trace_io_parses_loose_input;
        case "trace io errors" trace_io_errors;
        case "trace load file" trace_load_file;
        case "waypoint run coherent" trace_of_waypoint_is_coherent;
      ] );
    ( "evolving.edge_markovian",
      [
        case "create and density" em_create_and_density;
        case "validations" em_validations;
        case "deterministic extremes" em_deterministic_extremes;
        case "density tracks stationary" em_density_tracks_stationary;
        case "flood dense" em_flood_dense;
        case "flood frozen empty" em_flood_frozen_empty;
        case "flood single vertex" em_flood_single_vertex;
      ] );
  ]
