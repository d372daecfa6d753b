(* Tests for the temporal core types: Label, Tgraph, Journey. *)

open Helpers
module Graph = Sgraph.Graph
open Temporal

(* --------------------------------------------------------------- *)
(* Label *)

let label_of_list_normalises () =
  let l = Label.of_list [ 5; 2; 5; 1; 2 ] in
  Alcotest.(check (list int)) "sorted unique" [ 1; 2; 5 ] (Label.to_list l);
  check_int "size" 3 (Label.size l)

let label_invalid () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Label: labels must be positive") (fun () ->
      ignore (Label.of_list [ 1; 0 ]))

let label_empty () =
  check_bool "is_empty" true (Label.is_empty Label.empty);
  check_int "max of empty" 0 (Label.max_label Label.empty);
  check_int "min of empty" max_int (Label.min_label Label.empty);
  check_int "size" 0 (Label.size Label.empty)

let label_range () =
  Alcotest.(check (list int)) "range" [ 3; 4; 5 ]
    (Label.to_list (Label.range 3 5));
  check_bool "empty range" true (Label.is_empty (Label.range 5 3));
  Alcotest.check_raises "lo < 1"
    (Invalid_argument "Label.range: lo must be >= 1") (fun () ->
      ignore (Label.range 0 3))

let label_mem () =
  let l = Label.of_list [ 2; 4; 9 ] in
  check_bool "mem 4" true (Label.mem l 4);
  check_bool "not mem 3" false (Label.mem l 3);
  check_bool "not mem 1" false (Label.mem l 1);
  check_bool "not mem 10" false (Label.mem l 10)

let label_any_in () =
  let l = Label.of_list [ 2; 4; 9 ] in
  check_int_option "smallest in (1,9]" (Some 2) (Label.any_in l ~lo:1 ~hi:9);
  check_int_option "in (2,4]" (Some 4) (Label.any_in l ~lo:2 ~hi:4);
  check_int_option "none in (4,8]" None (Label.any_in l ~lo:4 ~hi:8)

let label_union () =
  Alcotest.(check (list int)) "union merges"
    [ 1; 2; 3 ]
    (Label.to_list (Label.union (Label.of_list [ 1; 3 ]) (Label.of_list [ 2; 3 ])))

let label_lifetime () =
  let l = Label.of_list [ 2; 7 ] in
  check_bool "fits" true (Label.within_lifetime l 7);
  check_bool "too long" false (Label.within_lifetime l 6);
  check_bool "empty fits anything" true (Label.within_lifetime Label.empty 1)

let label_singleton () =
  Alcotest.(check (list int)) "singleton" [ 4 ]
    (Label.to_list (Label.singleton 4))

(* --------------------------------------------------------------- *)
(* Tgraph *)

let tgraph_create_validations () =
  let g = Graph.create Undirected ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "wrong labels length"
    (Invalid_argument "Tgraph.create: one label set per edge required")
    (fun () -> ignore (Tgraph.create g ~lifetime:3 [||]));
  Alcotest.check_raises "label beyond lifetime"
    (Invalid_argument "Tgraph.create: label beyond the lifetime") (fun () ->
      ignore (Tgraph.create g ~lifetime:3 [| Label.singleton 4 |]));
  Alcotest.check_raises "bad lifetime"
    (Invalid_argument "Tgraph.create: lifetime must be positive") (fun () ->
      ignore (Tgraph.create g ~lifetime:0 [| Label.empty |]))

let tgraph_counts () =
  let net = fixture () in
  check_int "n" 5 (Tgraph.n net);
  check_int "lifetime" 8 (Tgraph.lifetime net);
  check_int "label count" 9 (Tgraph.label_count net);
  (* Undirected: each label contributes two stream entries. *)
  check_int "time edges" 18 (Tgraph.time_edge_count net)

let tgraph_directed_counts () =
  let net = directed_line () in
  check_int "one direction each" 3 (Tgraph.time_edge_count net)

let tgraph_stream_sorted () =
  let net = fixture () in
  let last = ref 0 in
  Tgraph.iter_time_edges net (fun ~src:_ ~dst:_ ~label ->
      check_bool "non-decreasing" true (label >= !last);
      last := label)

let tgraph_stream_entries_valid () =
  let net = fixture () in
  Tgraph.iter_time_edges net (fun ~src ~dst ~label ->
      check_bool "an arc available at its label" true
        (Tgraph.can_cross_at net ~src ~dst label))

let tgraph_crossings () =
  let net = fixture () in
  check_int "two arcs out of 0" 2 (Array.length (Tgraph.crossings_out net 0));
  check_int "three arcs into 4" 3 (Array.length (Tgraph.crossings_in net 4))

let tgraph_can_cross_at () =
  let net = fixture () in
  check_bool "0-4 at 1" true (Tgraph.can_cross_at net ~src:0 ~dst:4 1);
  check_bool "4-0 at 1 (undirected)" true (Tgraph.can_cross_at net ~src:4 ~dst:0 1);
  check_bool "0-4 at 2" false (Tgraph.can_cross_at net ~src:0 ~dst:4 2);
  check_bool "no arc 0-3" false (Tgraph.can_cross_at net ~src:0 ~dst:3 1)

let tgraph_directed_can_cross () =
  let net = directed_line () in
  check_bool "forward" true (Tgraph.can_cross_at net ~src:0 ~dst:1 1);
  check_bool "not backward" false (Tgraph.can_cross_at net ~src:1 ~dst:0 1)

let tgraph_time_edge_accessor () =
  let net = directed_line () in
  (* Sorted by label: (0,1,1) then (2,0,2) then (1,2,3). *)
  Alcotest.(check (triple int int int)) "first" (0, 1, 1) (Tgraph.time_edge net 0);
  Alcotest.(check (triple int int int)) "second" (2, 0, 2) (Tgraph.time_edge net 1);
  Alcotest.(check (triple int int int)) "third" (1, 2, 3) (Tgraph.time_edge net 2)

(* --------------------------------------------------------------- *)
(* Journey *)

let j steps = List.map (fun (src, dst, label) -> { Journey.src; dst; label }) steps

let journey_accessors () =
  let journey = j [ (0, 1, 2); (1, 3, 3); (3, 4, 4) ] in
  check_int_option "target" (Some 4) (Journey.target journey);
  check_int_option "arrival" (Some 4) (Journey.arrival journey);
  check_int_option "departure" (Some 2) (Journey.departure journey);
  check_int "length" 3 (Journey.length journey);
  Alcotest.(check (list int)) "vertices" [ 0; 1; 3; 4 ]
    (Journey.vertices journey)

let journey_empty () =
  check_int_option "no arrival" None (Journey.arrival []);
  check_int "length" 0 (Journey.length []);
  Alcotest.(check (list int)) "no vertices" [] (Journey.vertices [])

let journey_monotonicity () =
  check_bool "increasing ok" true
    (Journey.strictly_increasing (j [ (0, 1, 1); (1, 2, 3) ]));
  check_bool "equal labels rejected" false
    (Journey.strictly_increasing (j [ (0, 1, 2); (1, 2, 2) ]));
  check_bool "decreasing rejected" false
    (Journey.strictly_increasing (j [ (0, 1, 3); (1, 2, 1) ]))

let journey_connectivity () =
  check_bool "chained" true (Journey.connected (j [ (0, 1, 1); (1, 2, 2) ]));
  check_bool "broken" false (Journey.connected (j [ (0, 1, 1); (2, 3, 2) ]))

let journey_valid_in () =
  let net = fixture () in
  check_bool "real journey" true
    (Journey.valid_in net (j [ (0, 1, 2); (1, 3, 3); (3, 4, 4) ]));
  check_bool "label not available" false
    (Journey.valid_in net (j [ (0, 1, 3) ]));
  check_bool "no such edge" false (Journey.valid_in net (j [ (0, 3, 1) ]))

let journey_is_journey () =
  let net = fixture () in
  let journey = j [ (0, 1, 2); (1, 2, 5) ] in
  check_bool "anchored" true (Journey.is_journey net ~source:0 ~target:2 journey);
  check_bool "wrong source" false
    (Journey.is_journey net ~source:1 ~target:2 journey);
  check_bool "wrong target" false
    (Journey.is_journey net ~source:0 ~target:3 journey);
  check_bool "empty at a vertex" true (Journey.is_journey net ~source:3 ~target:3 []);
  check_bool "empty across vertices" false
    (Journey.is_journey net ~source:3 ~target:4 [])

let journey_direction_matters () =
  let net = directed_line () in
  check_bool "with the arcs" true
    (Journey.valid_in net (j [ (0, 1, 1); (1, 2, 3) ]));
  check_bool "against the arcs" false (Journey.valid_in net (j [ (1, 0, 1) ]))

let journey_walks_allowed () =
  (* Journeys are walks: revisiting a vertex is fine (Definition 2). *)
  let g = Graph.create Undirected ~n:2 [ (0, 1) ] in
  let net = Tgraph.create g ~lifetime:3 [| Label.of_list [ 1; 2; 3 ] |] in
  check_bool "0-1-0-1" true
    (Journey.is_journey net ~source:0 ~target:1
       (j [ (0, 1, 1); (1, 0, 2); (0, 1, 3) ]))

let pp_smoke () =
  let net = fixture () in
  let label_text = Format.asprintf "%a" Label.pp (Tgraph.labels net 0) in
  check_bool "label pp" true (String.length label_text > 0);
  let net_text = Format.asprintf "%a" Tgraph.pp net in
  check_bool "tgraph pp mentions lifetime" true (contains net_text "lifetime");
  let journey = j [ (0, 1, 2); (1, 2, 5) ] in
  let journey_text = Format.asprintf "%a" Journey.pp journey in
  check_bool "journey pp shows a step" true (contains journey_text "-[2]->")

let suites =
  [
    ( "temporal.label",
      [
        case "of_list normalises" label_of_list_normalises;
        case "invalid label" label_invalid;
        case "empty" label_empty;
        case "range" label_range;
        case "mem" label_mem;
        case "any_in" label_any_in;
        case "union" label_union;
        case "within lifetime" label_lifetime;
        case "singleton" label_singleton;
      ] );
    ( "temporal.tgraph",
      [
        case "create validations" tgraph_create_validations;
        case "counts" tgraph_counts;
        case "directed counts" tgraph_directed_counts;
        case "stream sorted" tgraph_stream_sorted;
        case "stream entries valid" tgraph_stream_entries_valid;
        case "crossings" tgraph_crossings;
        case "can_cross_at" tgraph_can_cross_at;
        case "directed can_cross" tgraph_directed_can_cross;
        case "time_edge accessor" tgraph_time_edge_accessor;
      ] );
    ( "temporal.journey",
      [
        case "accessors" journey_accessors;
        case "empty journey" journey_empty;
        case "monotonicity" journey_monotonicity;
        case "connectivity" journey_connectivity;
        case "valid_in" journey_valid_in;
        case "is_journey" journey_is_journey;
        case "direction matters" journey_direction_matters;
        case "walks allowed" journey_walks_allowed;
        case "pp smoke" pp_smoke;
      ] );
  ]
