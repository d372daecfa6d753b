(* Tests for Foremost, Distance and Flooding — including the two pivotal
   properties: the sweep matches exhaustive search, and flooding attains
   foremost arrival times. *)

open Helpers
module Graph = Sgraph.Graph
open Temporal

(* --------------------------------------------------------------- *)
(* Foremost on fixtures *)

let foremost_fixture () =
  let net = fixture () in
  let res = Foremost.run net 0 in
  check_int_option "self" (Some 0) (Foremost.distance res 0);
  check_int_option "to 4 (direct at 1)" (Some 1) (Foremost.distance res 4);
  check_int_option "to 1 (direct at 2)" (Some 2) (Foremost.distance res 1);
  (* 0 -> 4 @1 -> 2 @2 beats 0 -> 1 @2 -> 2 @5. *)
  check_int_option "to 2" (Some 2) (Foremost.distance res 2);
  check_int_option "to 3" (Some 3) (Foremost.distance res 3)

let foremost_directed () =
  let net = directed_line () in
  let res = Foremost.run net 0 in
  check_int_option "0 to 1" (Some 1) (Foremost.distance res 1);
  check_int_option "0 to 2" (Some 3) (Foremost.distance res 2);
  let back = Foremost.run net 1 in
  (* 1 -> 2 at 3, and 2 -> 0 at 2 < 3: no way back to 0. *)
  check_int_option "1 to 0 blocked in time" None (Foremost.distance back 0)

let foremost_needs_strict_increase () =
  let g = Graph.create Undirected ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:5 [| Label.singleton 3; Label.singleton 3 |]
  in
  let res = Foremost.run net 0 in
  check_int_option "equal labels do not chain" None (Foremost.distance res 2)

let foremost_start_time () =
  let net = fixture () in
  (* Departing at time >= 2 misses the {0,4}@1 edge. *)
  let res = Foremost.run ~start_time:2 net 0 in
  check_int_option "to 1 still 2" (Some 2) (Foremost.distance res 1);
  (* 0 -> 1 @2 -> 3 @3 -> 4 @4. *)
  check_int_option "to 4 now via 1,3" (Some 4) (Foremost.distance res 4)

let foremost_start_time_invalid () =
  Alcotest.check_raises "start_time < 1"
    (Invalid_argument "Foremost.run: start_time must be >= 1") (fun () ->
      ignore (Foremost.run ~start_time:0 (fixture ()) 0))

let foremost_bad_source () =
  Alcotest.check_raises "source range"
    (Invalid_argument "Foremost.run: source out of range") (fun () ->
      ignore (Foremost.run (fixture ()) 9))

let foremost_accessors () =
  let net = fixture () in
  let res = Foremost.run net 0 in
  check_int "source" 0 (Foremost.source res);
  check_int "start_time" 1 (Foremost.start_time res);
  check_int "all reachable" 5 (Foremost.reachable_count res);
  check_int_option "max distance" (Some 3) (Foremost.max_distance res)

let foremost_max_distance_incomplete () =
  let g = Graph.create Undirected ~n:3 [ (0, 1) ] in
  let net = Tgraph.create g ~lifetime:2 [| Label.singleton 1 |] in
  let res = Foremost.run net 0 in
  check_int_option "incomplete -> None" None (Foremost.max_distance res);
  check_int "reachable" 2 (Foremost.reachable_count res)

let foremost_journey_reconstruction () =
  let net = fixture () in
  let res = Foremost.run net 0 in
  for v = 0 to 4 do
    match Foremost.journey_to net res v with
    | None -> Alcotest.fail "fixture is fully reachable"
    | Some journey ->
      check_bool "valid journey" true
        (Journey.is_journey net ~source:0 ~target:v journey);
      if v <> 0 then
        check_int_option "arrival matches distance"
          (Foremost.distance res v)
          (Journey.arrival journey)
  done

let foremost_journey_unreachable () =
  let g = Graph.create Undirected ~n:3 [ (0, 1) ] in
  let net = Tgraph.create g ~lifetime:2 [| Label.singleton 1 |] in
  let res = Foremost.run net 0 in
  check_bool "unreachable journey is None" true
    (Foremost.journey_to net res 2 = None);
  check_bool "self journey is empty" true (Foremost.journey_to net res 0 = Some [])

(* --------------------------------------------------------------- *)
(* The pivotal properties *)

let foremost_matches_brute_force =
  qcase ~count:150 "foremost sweep = exhaustive search" ~print:print_params
    gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let res = Foremost.run net s in
        for t = 0 to n - 1 do
          if Foremost.distance res t <> Foremost.brute_force_distance net s t
          then ok := false
        done
      done;
      !ok)

let foremost_journeys_always_valid =
  qcase ~count:150 "reconstructed journeys are valid and foremost"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let res = Foremost.run net s in
        for t = 0 to n - 1 do
          match Foremost.journey_to net res t with
          | None -> if Foremost.distance res t <> None then ok := false
          | Some journey ->
            if not (Journey.is_journey net ~source:s ~target:t journey) then
              ok := false;
            if t <> s && Journey.arrival journey <> Foremost.distance res t
            then ok := false
        done
      done;
      !ok)

let flooding_equals_foremost =
  qcase ~count:150 "flooding informs at exactly the temporal distances"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let foremost = Foremost.run net s in
        let flood = Flooding.run net s in
        for v = 0 to n - 1 do
          if v <> s then begin
            let expected =
              match Foremost.distance foremost v with
              | Some d -> d
              | None -> max_int
            in
            if flood.informed_time.(v) <> expected then ok := false
          end
        done
      done;
      !ok)

(* --------------------------------------------------------------- *)
(* Flooding specifics *)

let flooding_fixture () =
  let net = fixture () in
  let result = Flooding.run net 0 in
  check_int "everyone informed" 5 result.informed_count;
  check_int_option "completion = max distance" (Some 3) result.completion_time;
  check_bool "transmissions positive" true (result.transmissions > 0)

let flooding_transmission_bound () =
  let net = fixture () in
  let result = Flooding.run net 0 in
  check_bool "at most one send per time edge" true
    (result.transmissions <= Tgraph.time_edge_count net)

let flooding_incomplete () =
  let g = Graph.create Undirected ~n:3 [ (0, 1); (1, 2) ] in
  (* 1-2 opens before 0-1: vertex 2 can never hear from 0. *)
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 2; Label.singleton 1 |]
  in
  let result = Flooding.run net 0 in
  check_int "only 0 and 1" 2 result.informed_count;
  check_bool "no completion" true (result.completion_time = None);
  check_int "2 never informed" max_int result.informed_time.(2)

let flooding_broadcast_time () =
  check_int_option "shortcut accessor" (Some 3)
    (Flooding.broadcast_time (fixture ()) 0)

let flooding_source_time () =
  let result = Flooding.run (fixture ()) 0 in
  check_int "source holds it from the start" 0 result.informed_time.(0)

let flooding_bad_args () =
  Alcotest.check_raises "source range"
    (Invalid_argument "Flooding.run: source out of range") (fun () ->
      ignore (Flooding.run (fixture ()) (-1)));
  Alcotest.check_raises "start_time"
    (Invalid_argument "Flooding.run: start_time must be >= 1") (fun () ->
      ignore (Flooding.run ~start_time:0 (fixture ()) 0));
  Alcotest.check_raises "broadcast_time source range"
    (Invalid_argument "Flooding.broadcast_time: source out of range")
    (fun () -> ignore (Flooding.broadcast_time (fixture ()) 5))

let budgeted_zero () =
  let net = fixture () in
  let result = Flooding.run_budgeted ~k:0 net 0 in
  check_int "only the source" 1 result.informed_count;
  check_int "silent" 0 result.transmissions

let budgeted_unlimited_equals_run =
  qcase ~count:80 "budgeted k=inf = plain flooding" ~print:print_params
    gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let plain = Flooding.run net s in
        let capped = Flooding.run_budgeted ~k:max_int net s in
        if plain.informed_time <> capped.informed_time
           || plain.transmissions <> capped.transmissions
        then ok := false
      done;
      !ok)

(* NOTE: informed times are NOT monotone in k — a vertex informed earlier
   (thanks to a bigger budget upstream) can burn its own budget on early
   useless arcs and miss a later critical one.  What IS guaranteed is
   domination by the unbudgeted protocol: budgeted runs fire a subset of
   the plain run's arcs, so they inform no earlier and send no more. *)
let budgeted_dominated_by_plain =
  qcase ~count:60 "budgeted floods never beat the unbudgeted protocol"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let plain = Flooding.run net s in
        let capped = Flooding.run_budgeted ~k:2 net s in
        if capped.transmissions > plain.transmissions then ok := false;
        for v = 0 to n - 1 do
          if capped.informed_time.(v) < plain.informed_time.(v) then ok := false
        done
      done;
      !ok)

let budgeted_respects_budget =
  qcase ~count:60 "transmissions <= k * n" ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let result = Flooding.run_budgeted ~k:2 net 0 in
      result.transmissions <= 2 * n)

let budgeted_invalid () =
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Flooding.run_budgeted: k must be >= 0") (fun () ->
      ignore (Flooding.run_budgeted ~k:(-1) (fixture ()) 0))

(* --------------------------------------------------------------- *)
(* Distance *)

let distance_pairwise () =
  let net = fixture () in
  check_int_option "0 to 3" (Some 3) (Distance.distance net 0 3);
  check_int_option "self" (Some 0) (Distance.distance net 2 2)

let distance_eccentricity () =
  let net = fixture () in
  check_int_option "ecc of 0" (Some 3) (Distance.eccentricity net 0)

let distance_instance_diameter () =
  let net = fixture () in
  match Distance.instance_diameter net with
  | None -> Alcotest.fail "fixture connected"
  | Some d ->
    (* Must equal the max over the all-pairs matrix. *)
    let pairs = Distance.all_pairs net in
    let worst = ref 0 in
    Array.iteri
      (fun u row ->
        Array.iteri (fun v x -> if u <> v && x > !worst then worst := x) row)
      pairs;
    check_int "diameter = max pair" !worst d

let distance_diameter_disconnected () =
  let g = Graph.create Undirected ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 2; Label.singleton 1 |]
  in
  check_bool "undefined diameter" true (Distance.instance_diameter net = None)

let distance_sampled_lower_bound =
  qcase ~count:60 "sampled diameter <= exact diameter" ~print:print_params
    gen_params
    (fun params ->
      let net = random_tnet params in
      match Distance.instance_diameter net with
      | None -> true (* sampling may or may not hit the broken pair *)
      | Some exact -> (
        match
          Distance.instance_diameter_sampled (rng ()) net ~sources:2
        with
        | None -> false (* exact connected implies every source completes *)
        | Some sampled -> sampled <= exact))

let distance_average () =
  let net = fixture () in
  let avg = Distance.average net in
  let diameter = float_of_int (Option.get (Distance.instance_diameter net)) in
  check_bool "average within [1, diameter]" true (avg >= 1. && avg <= diameter)

let suites =
  [
    ( "temporal.foremost",
      [
        case "fixture distances" foremost_fixture;
        case "directed instance" foremost_directed;
        case "strict increase required" foremost_needs_strict_increase;
        case "start_time" foremost_start_time;
        case "start_time invalid" foremost_start_time_invalid;
        case "bad source" foremost_bad_source;
        case "accessors" foremost_accessors;
        case "max_distance incomplete" foremost_max_distance_incomplete;
        case "journey reconstruction" foremost_journey_reconstruction;
        case "journey unreachable" foremost_journey_unreachable;
        foremost_matches_brute_force;
        foremost_journeys_always_valid;
      ] );
    ( "temporal.flooding",
      [
        case "fixture run" flooding_fixture;
        case "transmission bound" flooding_transmission_bound;
        case "incomplete instance" flooding_incomplete;
        case "broadcast_time" flooding_broadcast_time;
        case "source informed time" flooding_source_time;
        case "bad arguments" flooding_bad_args;
        flooding_equals_foremost;
        case "budgeted k=0" budgeted_zero;
        budgeted_unlimited_equals_run;
        budgeted_dominated_by_plain;
        budgeted_respects_budget;
        case "budgeted invalid" budgeted_invalid;
      ] );
    ( "temporal.distance",
      [
        case "pairwise" distance_pairwise;
        case "eccentricity" distance_eccentricity;
        case "instance diameter" distance_instance_diameter;
        case "disconnected" distance_diameter_disconnected;
        distance_sampled_lower_bound;
        case "average" distance_average;
      ] );
  ]
