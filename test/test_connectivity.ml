(* Tests for the connectivity stack: Maxflow, Expanded, Disjoint, and
   Serial (I/O). *)

open Helpers
module Graph = Sgraph.Graph
module Maxflow = Flow.Maxflow
open Temporal

(* --------------------------------------------------------------- *)
(* Maxflow *)

let flow_single_edge () =
  let net = Maxflow.create 2 in
  let e = Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:7 in
  check_int "value" 7 (Maxflow.max_flow net ~source:0 ~sink:1);
  check_int "edge flow" 7 (Maxflow.flow_on net e)

let flow_series () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:5);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~capacity:3);
  check_int "bottleneck" 3 (Maxflow.max_flow net ~source:0 ~sink:2)

let flow_parallel_paths () =
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:2);
  ignore (Maxflow.add_edge net ~src:1 ~dst:3 ~capacity:2);
  ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~capacity:3);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~capacity:1);
  check_int "sum of disjoint paths" 3 (Maxflow.max_flow net ~source:0 ~sink:3)

let flow_classic_augmenting () =
  (* The textbook diamond with a cross edge that forces augmentation
     through the residual network. *)
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:1);
  ignore (Maxflow.add_edge net ~src:0 ~dst:2 ~capacity:1);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~capacity:1);
  ignore (Maxflow.add_edge net ~src:1 ~dst:3 ~capacity:1);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~capacity:1);
  check_int "value 2" 2 (Maxflow.max_flow net ~source:0 ~sink:3)

let flow_disconnected () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:4);
  check_int "no path" 0 (Maxflow.max_flow net ~source:0 ~sink:2)

let flow_unbounded_edges () =
  let net = Maxflow.create 3 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:max_int);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~capacity:9);
  check_int "bounded by the finite edge" 9 (Maxflow.max_flow net ~source:0 ~sink:2)

let flow_validations () =
  let net = Maxflow.create 2 in
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Maxflow.add_edge: negative capacity") (fun () ->
      ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:(-1)));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Maxflow.add_edge: endpoint out of range") (fun () ->
      ignore (Maxflow.add_edge net ~src:0 ~dst:5 ~capacity:1));
  Alcotest.check_raises "source = sink"
    (Invalid_argument "Maxflow.max_flow: source = sink") (fun () ->
      ignore (Maxflow.max_flow net ~source:0 ~sink:0))

let flow_min_cut () =
  let net = Maxflow.create 4 in
  ignore (Maxflow.add_edge net ~src:0 ~dst:1 ~capacity:10);
  ignore (Maxflow.add_edge net ~src:1 ~dst:2 ~capacity:1);
  ignore (Maxflow.add_edge net ~src:2 ~dst:3 ~capacity:10);
  ignore (Maxflow.max_flow net ~source:0 ~sink:3);
  let side = Maxflow.min_cut_side net ~source:0 in
  check_bool "source side" true side.(0);
  check_bool "1 with source" true side.(1);
  check_bool "2 across the cut" false side.(2);
  check_bool "sink across" false side.(3)

(* Flow value equals min cut capacity on random unit-capacity DAGs:
   verified via the residual-reachability cut. *)
let flow_maxflow_mincut =
  qcase ~count:80 "max flow = capacity across the residual cut"
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let rng = Prng.Rng.create seed in
      let n = 6 in
      let net = Maxflow.create n in
      let capacities = Hashtbl.create 16 in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Prng.Rng.bernoulli rng 0.5 then begin
            let c = 1 + Prng.Rng.int rng 3 in
            ignore (Maxflow.add_edge net ~src:u ~dst:v ~capacity:c);
            Hashtbl.add capacities (u, v) c
          end
        done
      done;
      let value = Maxflow.max_flow net ~source:0 ~sink:(n - 1) in
      let side = Maxflow.min_cut_side net ~source:0 in
      let cut = ref 0 in
      Hashtbl.iter
        (fun (u, v) c -> if side.(u) && not side.(v) then cut := !cut + c)
        capacities;
      value = !cut)

(* --------------------------------------------------------------- *)
(* Expanded *)

let expanded_fixture_structure () =
  let net = fixture () in
  let exp = Expanded.build net in
  check_bool "more nodes than vertices" true (Expanded.node_count exp > 5);
  check_bool "has arcs" true (Expanded.arc_count exp > 0);
  (* Every vertex has a start node at time 0. *)
  for v = 0 to 4 do
    Alcotest.(check (pair int int))
      "start node" (v, 0)
      (Expanded.node exp (Expanded.start_node exp v))
  done

let expanded_travel_arcs_match_stream () =
  let net = fixture () in
  let exp = Expanded.build net in
  let travels = ref 0 in
  Array.iter
    (fun arc ->
      match arc with
      | Expanded.Travel { from_id; to_id; stream_index } ->
        incr travels;
        let src, dst, label = Tgraph.time_edge net stream_index in
        let from_vertex, from_time = Expanded.node exp from_id in
        let to_vertex, to_time = Expanded.node exp to_id in
        check_int "arc departs from the stream source" src from_vertex;
        check_int "arc lands on the stream target" dst to_vertex;
        check_int "lands at the label" label to_time;
        check_bool "departs strictly earlier" true (from_time < label)
      | Expanded.Wait { from_id; to_id } ->
        let from_vertex, from_time = Expanded.node exp from_id in
        let to_vertex, to_time = Expanded.node exp to_id in
        check_int "waits stay put" from_vertex to_vertex;
        check_bool "waits go forward" true (from_time < to_time))
    (Expanded.arcs exp);
  check_int "one travel arc per time edge" (Tgraph.time_edge_count net) !travels

let expanded_matches_foremost =
  qcase ~count:100 "expanded-graph BFS = foremost sweep" ~print:print_params
    gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let exp = Expanded.build net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let via_expansion = Expanded.earliest_arrival exp s in
        let res = Foremost.run net s in
        for v = 0 to n - 1 do
          let direct =
            if v = s then 0
            else
              match Foremost.distance res v with Some d -> d | None -> max_int
          in
          if via_expansion.(v) <> direct then ok := false
        done
      done;
      !ok)

(* --------------------------------------------------------------- *)
(* Disjoint *)

let edge_disjoint_parallel () =
  (* Two fully parallel timed paths 0->1->3 and 0->2->3. *)
  let g = Graph.create Directed ~n:4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let net =
    Tgraph.create g ~lifetime:4
      [| Label.singleton 1; Label.singleton 2; Label.singleton 1;
         Label.singleton 2 |]
  in
  check_int "two edge-disjoint journeys" 2 (Disjoint.max_edge_disjoint net ~s:0 ~t:3)

let edge_disjoint_shared_bottleneck () =
  (* Both routes must cross the single time edge (1,3,@2). *)
  let g = Graph.create Directed ~n:4 [ (0, 1); (2, 1); (1, 3) ] in
  let net =
    Tgraph.create g ~lifetime:4
      [| Label.singleton 1; Label.singleton 1; Label.singleton 2 |]
  in
  check_int "bottleneck" 1 (Disjoint.max_edge_disjoint net ~s:0 ~t:3)

let edge_disjoint_multilabel_edge () =
  (* One static edge with two labels = two time edges, hence two
     time-edge-disjoint journeys over the same physical link. *)
  let g = Graph.create Directed ~n:2 [ (0, 1) ] in
  let net = Tgraph.create g ~lifetime:3 [| Label.of_list [ 1; 2 ] |] in
  check_int "two time edges, two journeys" 2
    (Disjoint.max_edge_disjoint net ~s:0 ~t:1)

let edge_disjoint_unreachable () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 2; Label.singleton 1 |]
  in
  check_int "labels out of order" 0 (Disjoint.max_edge_disjoint net ~s:0 ~t:2)

let edge_disjoint_validations () =
  let net = fixture () in
  Alcotest.check_raises "s = t" (Invalid_argument "Disjoint: s = t") (fun () ->
      ignore (Disjoint.max_edge_disjoint net ~s:1 ~t:1));
  Alcotest.check_raises "range"
    (Invalid_argument "Disjoint: endpoint out of range") (fun () ->
      ignore (Disjoint.max_edge_disjoint net ~s:0 ~t:9))

let vertex_disjoint_small () =
  (* Two internally disjoint timed routes. *)
  let g = Graph.create Directed ~n:4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let net =
    Tgraph.create g ~lifetime:4
      [| Label.singleton 1; Label.singleton 2; Label.singleton 1;
         Label.singleton 2 |]
  in
  check_int "two" 2 (Disjoint.max_vertex_disjoint_exhaustive net ~s:0 ~t:3);
  check_int "separator two" 2
    (Disjoint.min_vertex_separator_exhaustive net ~s:0 ~t:3)

let vertex_disjoint_direct_edge () =
  let g = Graph.create Directed ~n:2 [ (0, 1) ] in
  let net = Tgraph.create g ~lifetime:2 [| Label.singleton 1 |] in
  check_int "direct journey, empty internals" 1
    (Disjoint.max_vertex_disjoint_exhaustive net ~s:0 ~t:1);
  check_int "inseparable" max_int
    (Disjoint.min_vertex_separator_exhaustive net ~s:0 ~t:1)

let vertex_disjoint_no_journey () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 2; Label.singleton 1 |]
  in
  check_int "zero journeys" 0
    (Disjoint.max_vertex_disjoint_exhaustive net ~s:0 ~t:2);
  check_int "empty separator suffices" 0
    (Disjoint.min_vertex_separator_exhaustive net ~s:0 ~t:2)

let menger_gap () =
  let net, s, t = Disjoint.menger_gap_example () in
  let disjoint = Disjoint.max_vertex_disjoint_exhaustive net ~s ~t in
  let separator = Disjoint.min_vertex_separator_exhaustive net ~s ~t in
  check_int "only one vertex-disjoint journey" 1 disjoint;
  check_int "but two vertices needed to cut" 2 separator;
  check_bool "Menger fails temporally" true (separator > disjoint)

let weak_duality =
  qcase ~count:80 "max disjoint <= min separator (weak duality)"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let s = 0 and t = n - 1 in
      if s = t then true
      else begin
        let disjoint = Disjoint.max_vertex_disjoint_exhaustive net ~s ~t in
        let separator = Disjoint.min_vertex_separator_exhaustive net ~s ~t in
        disjoint <= separator
      end)

let edge_disjoint_dominates_vertex =
  qcase ~count:80 "vertex-disjoint <= edge-disjoint" ~print:print_params
    gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let s = 0 and t = n - 1 in
      if s = t then true
      else
        Disjoint.max_vertex_disjoint_exhaustive net ~s ~t
        <= Disjoint.max_edge_disjoint net ~s ~t)

(* --------------------------------------------------------------- *)
(* Serial *)

let serial_roundtrip_fixture () =
  let net = fixture () in
  match Serial.of_string (Serial.to_string net) with
  | Error e -> Alcotest.fail e
  | Ok restored ->
    check_int "n" (Tgraph.n net) (Tgraph.n restored);
    check_int "lifetime" (Tgraph.lifetime net) (Tgraph.lifetime restored);
    Alcotest.(check string) "identical text" (Serial.to_string net)
      (Serial.to_string restored)

let serial_roundtrip_random =
  qcase ~count:100 "serialisation round-trips" ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      match Serial.of_string (Serial.to_string net) with
      | Error _ -> false
      | Ok restored -> Serial.to_string restored = Serial.to_string net)

let serial_parses_comments_and_blanks () =
  let text =
    "# a comment\n\ntemporal undirected n=3 lifetime=5\n# more\n0 1 : 2 4\n\n1 2 : 3\n"
  in
  match Serial.of_string text with
  | Error e -> Alcotest.fail e
  | Ok net ->
    check_int "n" 3 (Tgraph.n net);
    check_int "labels" 3 (Tgraph.label_count net)

let serial_empty_label_set () =
  match Serial.of_string "temporal directed n=2 lifetime=1\n0 1 :\n" with
  | Error e -> Alcotest.fail e
  | Ok net -> check_int "no labels" 0 (Tgraph.label_count net)

let serial_errors () =
  let expect_error text =
    match Serial.of_string text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  expect_error "";
  expect_error "nonsense header\n";
  expect_error "temporal sideways n=2 lifetime=3\n";
  expect_error "temporal directed n=x lifetime=3\n";
  expect_error "temporal directed n=2 lifetime=3\n0 1 2 4\n";
  expect_error "temporal directed n=2 lifetime=3\n0 9 : 1\n";
  expect_error "temporal directed n=2 lifetime=3\n0 1 : 9\n" (* beyond a *)

let serial_file_roundtrip () =
  let net = fixture () in
  let path = Filename.temp_file "ephemeral" ".tnet" in
  Serial.to_file path net;
  (match Serial.of_file path with
  | Error e -> Alcotest.fail e
  | Ok restored ->
    Alcotest.(check string) "file roundtrip" (Serial.to_string net)
      (Serial.to_string restored));
  Sys.remove path

let serial_of_missing_file () =
  check_bool "missing file is an error" true
    (match Serial.of_file "/nonexistent/x.tnet" with
    | Error _ -> true
    | Ok _ -> false)

let serial_parser_total =
  qcase ~count:300 "parser never raises on arbitrary input"
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 120))
    (fun text ->
      match Serial.of_string text with Ok _ | Error _ -> true)

let serial_parser_total_structured =
  (* Near-valid inputs stress the edge-line parser specifically. *)
  qcase ~count:200 "parser never raises on near-valid input"
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      let* n = int_range (-2) 5 in
      let* u = int_range (-1) 5 in
      let* v = int_range (-1) 5 in
      let* l = int_range (-3) 9 in
      return
        (Printf.sprintf "temporal directed n=%d lifetime=3\n%d %d : %d\n" n u v l))
    (fun text ->
      match Serial.of_string text with Ok _ | Error _ -> true)

let serial_gexf () =
  let gexf = Serial.to_gexf (fixture ()) in
  check_bool "xml header" true (contains gexf "<?xml");
  check_bool "dynamic mode" true (contains gexf "mode=\"dynamic\"");
  check_bool "undirected" true (contains gexf "defaultedgetype=\"undirected\"");
  check_bool "lifetime end" true (contains gexf "end=\"8\"");
  check_bool "a spell per label" true (contains gexf "<spell start=\"7\" end=\"7\"/>");
  let directed = Serial.to_gexf (directed_line ()) in
  check_bool "directed type" true (contains directed "defaultedgetype=\"directed\"")

let serial_dot () =
  let dot = Serial.to_dot (fixture ()) in
  check_bool "graph keyword" true (contains dot "graph");
  check_bool "labelled edge" true (contains dot "label=");
  let directed_dot = Serial.to_dot (directed_line ()) in
  check_bool "digraph for directed" true (contains directed_dot "digraph");
  check_bool "arrow" true (contains directed_dot "->")

(* --------------------------------------------------------------- *)
(* Tcc *)

let tcc_fixture () =
  let net = fixture () in
  (* The fixture is fully pairwise reachable (quickstart shows Treach
     and the underlying graph is connected). *)
  check_bool "temporally connected" true (Tcc.is_temporally_connected net);
  check_int "one scc" 1 (Tcc.scc_count net);
  check_int "all ordered pairs mutual" 20 (2 * Graph.m (Tcc.mutual_graph net));
  check_int "clique of everyone" 5 (Tcc.largest_mutual_clique_exhaustive net)

let tcc_broken_path () =
  let g = Graph.create Undirected ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 2; Label.singleton 1 |]
  in
  (* Journeys: 0<->1, 1<->2, 2->0; missing 0->2. *)
  let reach = Tcc.reachability_graph net in
  check_int "five arcs" 5 (Graph.m reach);
  check_bool "not temporally connected" false (Tcc.is_temporally_connected net);
  (* Chains close the loop: 0->1->...; all three sit in one SCC of the
     reachability digraph even though 0 -> 2 has no direct journey. *)
  check_int "one chain-scc" 1 (Tcc.scc_count net);
  (* Mutual graph: 0-1 and 1-2 only. *)
  check_int "mutual pairs" 4 (2 * Graph.m (Tcc.mutual_graph net));
  check_int "largest mutual clique" 2 (Tcc.largest_mutual_clique_exhaustive net)

let tcc_no_labels () =
  let g = Graph.create Undirected ~n:4 [ (0, 1); (2, 3) ] in
  let net = Tgraph.create g ~lifetime:2 [| Label.empty; Label.empty |] in
  check_int "no reachability arcs" 0 (Graph.m (Tcc.reachability_graph net));
  check_int "four singleton sccs" 4 (Tcc.scc_count net);
  check_int "clique size 1" 1 (Tcc.largest_mutual_clique_exhaustive net)

let tcc_nontransitivity_witness () =
  (* 0 -> 1 @3 and 1 -> 2 @1: both arcs exist (0->1, 1->2? journeys:
     1 -> 2 at 1 yes; 0 -> 1 at 3 yes) but 0 -> 2 does not compose. *)
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 3; Label.singleton 1 |]
  in
  let reach = Tcc.reachability_graph net in
  check_bool "0 reaches 1" true (Graph.mem_edge reach 0 1);
  check_bool "1 reaches 2" true (Graph.mem_edge reach 1 2);
  check_bool "0 does NOT reach 2 (non-transitivity)" false
    (Graph.mem_edge reach 0 2)

let tcc_clique_guard () =
  let g = Sgraph.Gen.clique Undirected 30 in
  let net = Temporal.Assignment.all_times g ~a:3 in
  Alcotest.check_raises "size guard"
    (Invalid_argument "Tcc.largest_mutual_clique_exhaustive: network too large")
    (fun () -> ignore (Tcc.largest_mutual_clique_exhaustive net))

let tcc_clique_matches_bruteforce =
  qcase ~count:40 "branch-and-bound = subset enumeration"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let mutual = Tcc.mutual_graph net in
      (* Exhaustive subset check. *)
      let best = ref 1 in
      for mask = 1 to (1 lsl n) - 1 do
        let members = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
        let is_clique =
          List.for_all
            (fun u ->
              List.for_all
                (fun v -> u = v || Graph.mem_edge mutual u v)
                members)
            members
        in
        if is_clique then best := Stdlib.max !best (List.length members)
      done;
      Tcc.largest_mutual_clique_exhaustive net = !best)

let tcc_scc_refines_mutuality =
  qcase ~count:60 "mutually reachable pairs share a chain-scc"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let reach = Tcc.reachability_graph net in
      let comp = Tcc.scc net in
      let n = Tgraph.n net in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Graph.mem_edge reach u v && Graph.mem_edge reach v u
          then if comp.(u) <> comp.(v) then ok := false
        done
      done;
      !ok)

let suites =
  [
    ( "flow.maxflow",
      [
        case "single edge" flow_single_edge;
        case "series bottleneck" flow_series;
        case "parallel paths" flow_parallel_paths;
        case "classic augmenting" flow_classic_augmenting;
        case "disconnected" flow_disconnected;
        case "unbounded edges" flow_unbounded_edges;
        case "validations" flow_validations;
        case "min cut side" flow_min_cut;
        flow_maxflow_mincut;
      ] );
    ( "temporal.expanded",
      [
        case "fixture structure" expanded_fixture_structure;
        case "travel arcs match stream" expanded_travel_arcs_match_stream;
        expanded_matches_foremost;
      ] );
    ( "temporal.disjoint",
      [
        case "edge-disjoint parallel" edge_disjoint_parallel;
        case "edge-disjoint bottleneck" edge_disjoint_shared_bottleneck;
        case "multi-label edge" edge_disjoint_multilabel_edge;
        case "unreachable" edge_disjoint_unreachable;
        case "validations" edge_disjoint_validations;
        case "vertex-disjoint small" vertex_disjoint_small;
        case "direct edge inseparable" vertex_disjoint_direct_edge;
        case "no journey" vertex_disjoint_no_journey;
        case "Menger gap (KKK phenomenon)" menger_gap;
        weak_duality;
        edge_disjoint_dominates_vertex;
      ] );
    ( "temporal.tcc",
      [
        case "fixture" tcc_fixture;
        case "broken path" tcc_broken_path;
        case "no labels" tcc_no_labels;
        case "non-transitivity witness" tcc_nontransitivity_witness;
        case "clique guard" tcc_clique_guard;
        tcc_clique_matches_bruteforce;
        tcc_scc_refines_mutuality;
      ] );
    ( "temporal.serial",
      [
        case "roundtrip fixture" serial_roundtrip_fixture;
        serial_roundtrip_random;
        case "comments and blanks" serial_parses_comments_and_blanks;
        case "empty label set" serial_empty_label_set;
        case "errors" serial_errors;
        case "file roundtrip" serial_file_roundtrip;
        case "missing file" serial_of_missing_file;
        serial_parser_total;
        serial_parser_total_structured;
        case "dot export" serial_dot;
        case "gexf export" serial_gexf;
      ] );
  ]
