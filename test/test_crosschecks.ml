(* Cross-module identities: independent implementations must agree.
   Each property here ties at least two modules together, so a silent
   regression in either breaks a visible equation. *)

open Helpers
module Graph = Sgraph.Graph
open Temporal

(* Builder output serialises and parses back to itself. *)
let builder_serial_roundtrip =
  qcase ~count:60 "Builder -> Serial -> Serial round-trips"
    ~print:print_params gen_params
    (fun (n, seed, a, r) ->
      let rng = Prng.Rng.create seed in
      let b = Builder.create Undirected ~n in
      for _ = 1 to n * r do
        let u = Prng.Rng.int rng n and v = Prng.Rng.int rng n in
        if u <> v then Builder.add_label b u v (1 + Prng.Rng.int rng a)
      done;
      let net = Builder.build ~lifetime:a b in
      match Serial.of_string (Serial.to_string net) with
      | Error _ -> false
      | Ok back -> Serial.to_string back = Serial.to_string net)

(* Flooding's transmission count recomputed independently from the
   informed times. *)
let flooding_transmissions_recount =
  qcase ~count:80 "flooding transmissions = arcs firing after infection"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let result = Flooding.run net s in
        let recount = ref 0 in
        Tgraph.iter_time_edges net (fun ~src ~dst:_ ~label ->
            let informed_at =
              if src = s then 0 else result.informed_time.(src)
            in
            if informed_at < label then incr recount);
        if !recount <> result.transmissions then ok := false
      done;
      !ok)

(* The reachability graph's out-degrees are the foremost reach counts. *)
let tcc_degrees_match_reach_counts =
  qcase ~count:60 "Tcc.reachability_graph degrees = Centrality.reach_counts"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let reach = Tcc.reachability_graph net in
      let counts = Centrality.reach_counts net in
      let ok = ref true in
      for v = 0 to Tgraph.n net - 1 do
        (* reach_counts includes the vertex itself. *)
        if Graph.out_degree reach v + 1 <> counts.(v) then ok := false
      done;
      !ok)

(* Pruning is idempotent: a minimal sublabeling has nothing to remove. *)
let spanner_idempotent =
  qcase ~count:20 "Spanner.prune is idempotent" ~print:print_params
    gen_small_nets
    (fun params ->
      let net = random_tnet params in
      if not (Reachability.treach net) then true
      else begin
        let once = Spanner.prune net in
        let twice = Spanner.prune once.pruned in
        twice.removed = 0 && twice.kept = once.kept
      end)

(* Hybrid designs may lose random labels to collisions with the backbone
   but never exceed the budget. *)
let design_budget_bounds =
  qcase ~count:40 "hybrid label count within (backbone, budget]"
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 5_000)
    (fun seed ->
      let g = Sgraph.Gen.grid 4 4 in
      let rng = Prng.Rng.create seed in
      let r = 1 + (seed mod 3) in
      let net = Design.realise rng g ~a:32 (Hybrid r) in
      let count = Tgraph.label_count net in
      count > Design.label_budget g Backbone_only
      && count <= Design.label_budget g (Hybrid r))

(* Shifting the whole schedule shifts every profile step uniformly. *)
let profile_shift_commutes =
  qcase ~count:40 "Ops.shift commutes with Profile arrivals"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let shifted = Ops.shift net 5 in
      let s = 0 and t = n - 1 in
      s = t
      ||
      let base = Profile.compute net ~source:s ~target:t in
      let moved = Profile.compute shifted ~source:s ~target:t in
      (* Compare at matching departure times over the original domain. *)
      List.for_all
        (fun t0 ->
          let before = Profile.arrival_at base t0 in
          let after = Profile.arrival_at moved (t0 + 5) in
          match (before, after) with
          | Some b, Some a -> a = b + 5
          | None, None -> true
          | _ -> false)
        (List.init (Tgraph.lifetime net + 1) (fun i -> i + 1)))

(* The expanded graph has exactly one travel arc per stream entry and
   its wait arcs chain each vertex's events. *)
let expanded_arc_census =
  qcase ~count:60 "Expanded arc counts add up" ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let exp = Expanded.build net in
      let travels = ref 0 and waits = ref 0 in
      Array.iter
        (fun arc ->
          match arc with
          | Expanded.Travel _ -> incr travels
          | Expanded.Wait _ -> incr waits)
        (Expanded.arcs exp);
      !travels = Tgraph.time_edge_count net
      && !waits = Expanded.node_count exp - Tgraph.n net)

(* Serial and Windows agree on the label multiset. *)
let windows_serial_consistent =
  qcase ~count:60 "Windows.of_tgraph preserves exactly the label content"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let w = Windows.of_tgraph net in
      let ok = ref true in
      Graph.iter_edges (Tgraph.graph net) (fun e _ _ ->
          let original = Label.to_list (Tgraph.labels net e) in
          let via_windows =
            Label.to_list (Windows.labels_of_schedule (Windows.schedule w e))
          in
          if original <> via_windows then ok := false);
      !ok)

(* Centrality broadcast times = flooding completion = foremost max. *)
let broadcast_three_ways =
  qcase ~count:60 "broadcast time: Centrality = Flooding = Foremost"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let times = Centrality.broadcast_time net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let via_flooding =
          match Flooding.broadcast_time net s with Some t -> t | None -> max_int
        in
        let via_foremost =
          match Foremost.max_distance (Foremost.run net s) with
          | Some t -> t
          | None -> max_int
        in
        if times.(s) <> via_flooding || times.(s) <> via_foremost then
          ok := false
      done;
      !ok)

(* Restless with the trivial bound coincides with the batch sweep. *)
let restless_matches_batch =
  qcase ~count:60 "batch = restless(delta=lifetime)"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let a = Tgraph.lifetime net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let batch = Foremost.run net s in
        let restless = Restless.run ~delta:a net s in
        for v = 0 to n - 1 do
          if Restless.distance restless v <> Foremost.distance batch v then
            ok := false
        done
      done;
      !ok)

(* Edge-disjoint journey count is bounded by both endpoint time-degrees. *)
let disjoint_degree_bound =
  qcase ~count:40 "max edge-disjoint <= min(out-labels(s), in-labels(t))"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let s = 0 and t = n - 1 in
      s = t
      ||
      let label_count arcs =
        Array.fold_left (fun acc (_, _, ls) -> acc + Label.size ls) 0 arcs
      in
      let out_s = label_count (Tgraph.crossings_out net s) in
      let in_t = label_count (Tgraph.crossings_in net t) in
      Disjoint.max_edge_disjoint net ~s ~t <= Stdlib.min out_s in_t)

(* Brute-force count of distinct foremost journeys (exhaustive walk
   enumeration, deduplicated). *)
let brute_foremost_count net s t =
  match Foremost.distance (Foremost.run net s) t with
  | None -> 0
  | Some 0 -> 1
  | Some target_arrival ->
    let journeys = Hashtbl.create 16 in
    let rec explore v time steps =
      if time < target_arrival then
        Array.iter
          (fun (_, target, labels) ->
            List.iter
              (fun label ->
                if label > time && label <= target_arrival then begin
                  let steps = (v, target, label) :: steps in
                  if target = t && label = target_arrival then
                    Hashtbl.replace journeys (List.rev steps) ()
                  else explore target label steps
                end)
              (Label.to_list labels))
          (Tgraph.crossings_out net v)
    in
    explore s 0 [];
    Hashtbl.length journeys

let counting_matches_bruteforce =
  qcase ~count:80 "Counting.foremost_journeys = exhaustive enumeration"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let counts = Counting.foremost_journeys net s in
        for t = 0 to n - 1 do
          if counts.(t) <> brute_foremost_count net s t then ok := false
        done
      done;
      !ok)

let counting_positive_iff_reachable =
  qcase ~count:60 "count > 0 iff reachable" ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let counts = Counting.foremost_journeys net s in
        let res = Foremost.run net s in
        for t = 0 to n - 1 do
          if (counts.(t) > 0) <> (Foremost.distance res t <> None) then
            ok := false
        done
      done;
      !ok)

let summary_facade_fixture () =
  let s = Summary_t.compute (fixture ()) in
  check_int "n" 5 s.n;
  check_int "m" 6 s.m;
  check_int "lifetime" 8 s.lifetime;
  check_int "labels" 9 s.labels;
  check_int "time edges" 18 s.time_edges;
  check_bool "static" true s.statically_connected;
  check_bool "treach" true s.treach;
  check_int "pairs" 20 s.reachable_pairs;
  check_int "static pairs" 20 s.static_pairs;
  (* The worst pair is (2,0): 2-1@5 then 1-0@7. *)
  check_int_option "diameter" (Some 7) s.temporal_diameter;
  check_int "one cover source" 1 s.cover_sources;
  check_int "one scc" 1 s.temporal_scc_count;
  check_bool "renders" true
    (String.length (Format.asprintf "%a" Summary_t.pp s) > 0)

let summary_facade_consistent =
  qcase ~count:40 "facade fields = their direct computations"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let s = Summary_t.compute net in
      s.treach = Reachability.treach net
      && s.reachable_pairs = Reachability.reachable_pair_count net
      && s.temporal_diameter = Distance.instance_diameter net
      && s.temporal_scc_count = Tcc.scc_count net
      && s.labels = Tgraph.label_count net)

let counting_unique_on_fixture () =
  let net = fixture () in
  (* delta(0,4) = 1 via the single time edge {0,4}@1: unique optimum. *)
  check_bool "unique direct journey" true (Counting.unique_optimum net ~s:0 ~t:4)

let suites =
  [
    ( "crosschecks",
      [
        builder_serial_roundtrip;
        flooding_transmissions_recount;
        tcc_degrees_match_reach_counts;
        spanner_idempotent;
        design_budget_bounds;
        profile_shift_commutes;
        expanded_arc_census;
        windows_serial_consistent;
        broadcast_three_ways;
        restless_matches_batch;
        disjoint_degree_bound;
        counting_matches_bruteforce;
        counting_positive_iff_reachable;
        case "counting unique optimum" counting_unique_on_fixture;
        case "summary facade fixture" summary_facade_fixture;
        summary_facade_consistent;
      ] );
  ]
