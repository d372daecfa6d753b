(* Tests for the extended journey taxonomy: Reverse_foremost, Shortest,
   Fastest, plus Centrality and Profile. *)

open Helpers
module Graph = Sgraph.Graph
open Temporal

(* Brute-force references over all journeys of a small network.
   enumerate f: calls f on every journey (as (first_label, last_label,
   hops, target)) starting at s. *)
let enumerate_journeys net s f =
  let rec explore v time ~first ~hops =
    Array.iter
      (fun (_, target, labels) ->
        List.iter
          (fun label ->
            if label > time then begin
              let first = match first with None -> Some label | x -> x in
              f ~first:(Option.get first) ~last:label ~hops:(hops + 1) ~target;
              explore target label ~first ~hops:(hops + 1)
            end)
          (Label.to_list labels))
      (Tgraph.crossings_out net v)
  in
  explore s 0 ~first:None ~hops:0

let brute_min_hops net s t =
  if s = t then Some 0
  else begin
    let best = ref max_int in
    enumerate_journeys net s (fun ~first:_ ~last:_ ~hops ~target ->
        if target = t && hops < !best then best := hops);
    if !best = max_int then None else Some !best
  end

let brute_min_duration net s t =
  if s = t then Some 0
  else begin
    let best = ref max_int in
    enumerate_journeys net s (fun ~first ~last ~hops:_ ~target ->
        if target = t && last - first < !best then best := last - first);
    if !best = max_int then None else Some !best
  end

let brute_latest_departure net s t ~deadline =
  if s = t then None
  else begin
    let best = ref (-1) in
    enumerate_journeys net s (fun ~first ~last ~hops:_ ~target ->
        if target = t && last <= deadline && first > !best then best := first);
    if !best < 0 then None else Some !best
  end

(* Small-but-rich generator: tighter than gen_params so enumeration stays
   cheap (journey counts blow up with labels). *)
let gen_small =
  QCheck2.Gen.(
    let* n = int_range 2 5 in
    let* seed = int_range 0 5_000 in
    let* a = int_range 1 6 in
    return (n, seed, a, 1))

(* --------------------------------------------------------------- *)
(* Reverse_foremost *)

let reverse_fixture () =
  let net = fixture () in
  let r = Reverse_foremost.run net 2 in
  (* Journeys into 2 must end on {1,2}@5 or {2,4}@{2,8}. *)
  check_int_option "latest presence of 4 (direct @8)" (Some 7)
    (Reverse_foremost.latest_presence r 4);
  check_int_option "latest departure of 4" (Some 8)
    (Reverse_foremost.latest_departure r 4);
  check_int_option "target presence = deadline, by default the lifetime"
    (Some 8) (Reverse_foremost.latest_presence r 2);
  check_bool "target has no departure" true
    (Reverse_foremost.latest_departure r 2 = None)

let reverse_deadline_restricts () =
  let net = fixture () in
  let r = Reverse_foremost.run ~deadline:4 net 2 in
  (* By time 4 the only arcs into 2 used so far are {2,4}@2; 4 must be
     present before 2, and 0 before 1 ({0,4}@1). *)
  check_int_option "4 presence" (Some 1) (Reverse_foremost.latest_presence r 4);
  check_int_option "0 presence" (Some 0) (Reverse_foremost.latest_presence r 0);
  check_bool "3 cannot make it by 4" true
    (Reverse_foremost.latest_presence r 3 = None)

let reverse_bad_args () =
  Alcotest.check_raises "bad target"
    (Invalid_argument "Reverse_foremost.run: target out of range") (fun () ->
      ignore (Reverse_foremost.run (fixture ()) 77));
  Alcotest.check_raises "bad deadline"
    (Invalid_argument "Reverse_foremost.run: deadline must be positive")
    (fun () -> ignore (Reverse_foremost.run ~deadline:0 (fixture ()) 0))

let reverse_reachable_count () =
  let net = fixture () in
  check_int "everyone can reach 2" 5
    (Reverse_foremost.reachable_count (Reverse_foremost.run net 2))

let reverse_matches_brute_force =
  qcase ~count:120 "latest departure = brute force" ~print:print_params
    gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let deadline = Tgraph.lifetime net in
      let ok = ref true in
      for t = 0 to n - 1 do
        let r = Reverse_foremost.run net t in
        for s = 0 to n - 1 do
          if s <> t then begin
            let expected = brute_latest_departure net s t ~deadline in
            if Reverse_foremost.latest_departure r s <> expected then ok := false
          end
        done
      done;
      !ok)

let reverse_journeys_valid =
  qcase ~count:120 "reverse witnesses are valid and depart latest"
    ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for t = 0 to n - 1 do
        let r = Reverse_foremost.run net t in
        for s = 0 to n - 1 do
          match Reverse_foremost.journey_from net r s with
          | None -> if Reverse_foremost.latest_presence r s <> None then ok := false
          | Some [] -> if s <> t then ok := false
          | Some journey ->
            if not (Journey.is_journey net ~source:s ~target:t journey) then
              ok := false;
            if Journey.departure journey <> Reverse_foremost.latest_departure r s
            then ok := false;
            (match Journey.arrival journey with
            | Some a -> if a > Tgraph.lifetime net then ok := false
            | None -> ok := false)
        done
      done;
      !ok)

(* --------------------------------------------------------------- *)
(* Shortest *)

let shortest_fixture () =
  let net = fixture () in
  let r = Shortest.run net 0 in
  check_int_option "self" (Some 0) (Shortest.hops r 0);
  check_int_option "direct to 4" (Some 1) (Shortest.hops r 4);
  check_int_option "direct to 1" (Some 1) (Shortest.hops r 1);
  (* 2 is two hops from 0 either way. *)
  check_int_option "two hops to 2" (Some 2) (Shortest.hops r 2);
  check_int_option "two hops to 3" (Some 2) (Shortest.hops r 3);
  check_int_option "max hops" (Some 2) (Shortest.max_hops r)

let shortest_vs_foremost_tradeoff () =
  (* A net where the fewest-hop journey arrives later than the foremost:
     0-2 direct at time 9; 0-1-2 at times 1,2. *)
  let g = Graph.create Undirected ~n:3 [ (0, 2); (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:9
      [| Label.singleton 9; Label.singleton 1; Label.singleton 2 |]
  in
  let short = Shortest.run net 0 in
  let fore = Foremost.run net 0 in
  check_int_option "one hop suffices" (Some 1) (Shortest.hops short 2);
  check_int_option "but arrives at 9" (Some 9)
    (Shortest.arrival_at_best_hops short 2);
  check_int_option "foremost arrives at 2" (Some 2) (Foremost.distance fore 2)

let shortest_reachability_agrees =
  qcase ~count:120 "hops finite iff foremost-reachable" ~print:print_params
    gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let short = Shortest.run net s in
        let fore = Foremost.run net s in
        for t = 0 to n - 1 do
          if (Shortest.hops short t = None) <> (Foremost.distance fore t = None)
          then ok := false
        done
      done;
      !ok)

let shortest_matches_brute_force =
  qcase ~count:120 "hop counts = brute force" ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let r = Shortest.run net s in
        for t = 0 to n - 1 do
          if Shortest.hops r t <> brute_min_hops net s t then ok := false
        done
      done;
      !ok)

let shortest_journeys_valid =
  qcase ~count:120 "shortest witnesses are valid with exactly hops steps"
    ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let r = Shortest.run net s in
        for t = 0 to n - 1 do
          match Shortest.journey_to net r t with
          | None -> if Shortest.hops r t <> None then ok := false
          | Some journey ->
            if not (Journey.is_journey net ~source:s ~target:t journey) then
              ok := false;
            if Some (Journey.length journey) <> Shortest.hops r t then
              ok := false
        done
      done;
      !ok)

let shortest_lower_bounded_by_static =
  qcase ~count:80 "hops >= static hop distance" ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let g = Tgraph.graph net in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let static = Sgraph.Traverse.bfs g s in
        let r = Shortest.run net s in
        for t = 0 to n - 1 do
          match Shortest.hops r t with
          | Some h -> if h < static.(t) then ok := false
          | None -> ()
        done
      done;
      !ok)

let shortest_pareto_fixture () =
  let net = fixture () in
  let r = Shortest.run net 0 in
  Alcotest.(check (list (pair int int))) "source" [ (0, 0) ] (Shortest.pareto r 0);
  (* 0 -> 2: two hops arrive at 2, already foremost: a single point. *)
  Alcotest.(check (list (pair int int))) "single point" [ (2, 2) ]
    (Shortest.pareto r 2)

let shortest_pareto_tradeoff () =
  let g = Graph.create Undirected ~n:3 [ (0, 2); (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:9
      [| Label.singleton 9; Label.singleton 1; Label.singleton 2 |]
  in
  let r = Shortest.run net 0 in
  Alcotest.(check (list (pair int int))) "two-point staircase"
    [ (1, 9); (2, 2) ]
    (Shortest.pareto r 2)

let shortest_pareto_properties =
  qcase ~count:80 "pareto fronts are consistent staircases"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let r = Shortest.run net s in
        let foremost = Foremost.run net s in
        for v = 0 to n - 1 do
          match Shortest.pareto r v with
          | [] -> if Shortest.hops r v <> None then ok := false
          | front ->
            (* Endpoints anchor to Shortest and Foremost. *)
            let h0, a0 = List.hd front in
            if Some h0 <> Shortest.hops r v then ok := false;
            if v <> s && Some a0 <> Shortest.arrival_at_best_hops r v then
              ok := false;
            let _, last_arrival = List.nth front (List.length front - 1) in
            let expected =
              if v = s then Some 0 else Foremost.distance foremost v
            in
            if Some last_arrival <> expected then ok := false;
            (* Staircase: hops strictly increase, arrivals strictly
               decrease. *)
            let rec monotone = function
              | (h1, a1) :: ((h2, a2) :: _ as rest) ->
                h1 < h2 && a1 > a2 && monotone rest
              | _ -> true
            in
            if not (monotone front) then ok := false
        done
      done;
      !ok)

let shortest_bad_args () =
  Alcotest.check_raises "bad source"
    (Invalid_argument "Shortest.run: source out of range") (fun () ->
      ignore (Shortest.run (fixture ()) 9));
  Alcotest.check_raises "bad start_time"
    (Invalid_argument "Shortest.run: start_time must be >= 1") (fun () ->
      ignore (Shortest.run ~start_time:0 (fixture ()) 0))

(* --------------------------------------------------------------- *)
(* Fastest *)

let fastest_fixture () =
  let net = fixture () in
  let r = Fastest.run net 0 in
  check_int_option "self" (Some 0) (Fastest.duration r 0);
  (* 0 -> 4 direct at 1: transit 0. *)
  check_int_option "direct transit 0" (Some 0) (Fastest.duration r 4);
  check_bool "window of 4" true (Fastest.window r 4 = Some (1, 1))

let fastest_waiting_pays () =
  (* 0-1 at {1, 8}; 1-2 at {9}.  Foremost departs at 1 (duration 8); the
     fastest departs at 8 (duration 1). *)
  let g = Graph.create Undirected ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:9
      [| Label.of_list [ 1; 8 ]; Label.singleton 9 |]
  in
  let r = Fastest.run net 0 in
  check_int_option "duration 1" (Some 1) (Fastest.duration r 2);
  check_bool "window (8,9)" true (Fastest.window r 2 = Some (8, 9));
  let fore = Foremost.run net 0 in
  check_int_option "foremost arrives at 9 anyway" (Some 9)
    (Foremost.distance fore 2)

let fastest_matches_brute_force =
  qcase ~count:120 "durations = brute force" ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let r = Fastest.run net s in
        for t = 0 to n - 1 do
          if Fastest.duration r t <> brute_min_duration net s t then ok := false
        done
      done;
      !ok)

let fastest_journeys_valid =
  qcase ~count:120 "fastest witnesses are valid and achieve the duration"
    ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let r = Fastest.run net s in
        for t = 0 to n - 1 do
          match Fastest.journey_to net r t with
          | None -> if Fastest.duration r t <> None then ok := false
          | Some [] -> if t <> s then ok := false
          | Some journey ->
            if not (Journey.is_journey net ~source:s ~target:t journey) then
              ok := false;
            let transit =
              match (Journey.departure journey, Journey.arrival journey) with
              | Some d, Some a -> Some (a - d)
              | _ -> None
            in
            if transit <> Fastest.duration r t then ok := false
        done
      done;
      !ok)

let fastest_never_slower_than_foremost =
  qcase ~count:80 "duration <= foremost arrival - 1 + 1" ~print:print_params
    gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let fast = Fastest.run net s in
        let fore = Foremost.run net s in
        for t = 0 to n - 1 do
          match (Fastest.duration fast t, Foremost.distance fore t) with
          | Some d, Some arrival ->
            (* The foremost journey departs at >= 1, so its transit is at
               most arrival - 1; fastest only improves on it. *)
            if t <> s && d > arrival - 1 then ok := false
          | None, Some _ | Some _, None -> ok := false
          | None, None -> ()
        done
      done;
      !ok)

let fastest_bad_source () =
  Alcotest.check_raises "bad source"
    (Invalid_argument "Fastest.run: source out of range") (fun () ->
      ignore (Fastest.run (fixture ()) (-1)))

(* --------------------------------------------------------------- *)
(* Centrality *)

let centrality_fixture_bounds () =
  let net = fixture () in
  let out = Centrality.out_closeness net in
  let into = Centrality.in_closeness net in
  Array.iter
    (fun score -> check_bool "out in [0,1]" true (score >= 0. && score <= 1.))
    out;
  Array.iter
    (fun score -> check_bool "in in [0,1]" true (score >= 0. && score <= 1.))
    into

let centrality_star_centre_wins () =
  (* Star with labels {1,2} everywhere: the centre reaches every leaf at
     time 1; leaves need 2 steps to cross. *)
  let net = Opt.star_two_labels (Sgraph.Gen.star 8) in
  let out = Centrality.out_closeness net in
  for leaf = 1 to 7 do
    check_bool "centre beats leaves" true (out.(0) > out.(leaf))
  done;
  check_int "rank puts centre first" 0 (Centrality.rank out).(0)

let centrality_broadcast () =
  let net = fixture () in
  let times = Centrality.broadcast_time net in
  check_int "from 0" 3 times.(0);
  let best, time = Centrality.best_broadcaster net in
  check_bool "best is at least as good as 0" true (time <= 3);
  check_int "consistent" time times.(best)

let centrality_reach_counts () =
  let net = fixture () in
  Alcotest.(check (array int)) "everyone reaches everyone" [| 5; 5; 5; 5; 5 |]
    (Centrality.reach_counts net)

let centrality_rank_order () =
  let order = Centrality.rank [| 0.1; 0.9; 0.5 |] in
  Alcotest.(check (array int)) "descending" [| 1; 2; 0 |] order

let centrality_betweenness_star () =
  let net = Opt.star_two_labels (Sgraph.Gen.star 8) in
  let scores = Centrality.betweenness net in
  check_bool "centre carries everything" true (scores.(0) > 0.);
  for leaf = 1 to 7 do
    check_float "leaves carry nothing" 0. scores.(leaf)
  done

let centrality_betweenness_bounds =
  qcase ~count:40 "betweenness scores are non-negative and bounded"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      Array.for_all
        (fun s -> s >= 0. && s <= float_of_int n)
        (Centrality.betweenness net))

let centrality_cover_fixture () =
  let net = fixture () in
  (* Vertex 0 floods everyone by time 3, so one source suffices. *)
  check_int "single source" 1 (List.length (Centrality.broadcast_cover net));
  (* With deadline 0 nobody reaches anybody: every vertex is its own
     source. *)
  check_int "degenerate deadline" 5
    (List.length (Centrality.cover_by_time net ~deadline:0))

let centrality_cover_invalid () =
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Centrality.cover_by_time: negative deadline") (fun () ->
      ignore (Centrality.cover_by_time (fixture ()) ~deadline:(-1)))

let centrality_cover_covers =
  qcase ~count:40 "cover sources jointly inform everyone in time"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let deadline = Tgraph.lifetime net in
      let sources = Centrality.cover_by_time net ~deadline in
      let covered = Array.make n false in
      List.iter
        (fun s ->
          let result = Flooding.run net s in
          Array.iteri
            (fun v t -> if t <= deadline then covered.(v) <- true)
            result.informed_time)
        sources;
      Array.for_all Fun.id covered)

let centrality_closeness_consistent =
  qcase ~count:60 "out-closeness sums match per-pair distances"
    ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let out = Centrality.out_closeness net in
      let ok = ref true in
      for u = 0 to n - 1 do
        let expected = ref 0. in
        for v = 0 to n - 1 do
          if v <> u then
            match Distance.distance net u v with
            | Some d when d > 0 -> expected := !expected +. (1. /. float_of_int d)
            | _ -> ()
        done;
        let expected = !expected /. float_of_int (Stdlib.max 1 (n - 1)) in
        if abs_float (expected -. out.(u)) > 1e-9 then ok := false
      done;
      !ok)

(* --------------------------------------------------------------- *)
(* Profile *)

let profile_fixture () =
  let net = fixture () in
  let steps = Profile.compute net ~source:0 ~target:2 in
  (* Departing at 1: 0-4@1, 4-2@2 -> 2.  Departing at 2: 0-1@2,1-2@5 -> 5.
     Departing later: 0-1@7, then 1-2@5 gone; 0-4 gone -> never...
     check the first values through the evaluator. *)
  check_int_option "depart 1" (Some 2) (Profile.arrival_at steps 1);
  check_int_option "depart 2" (Some 5) (Profile.arrival_at steps 2);
  check_int_option "depart 3" None (Profile.arrival_at steps 3);
  check_int_option "depart 6" None (Profile.arrival_at steps 6);
  check_int_option "latest useful departure time" (Some 2)
    (Profile.latest_useful_departure steps)

let profile_self () =
  let net = fixture () in
  let steps = Profile.compute net ~source:3 ~target:3 in
  check_int_option "always 0" (Some 0) (Profile.arrival_at steps 1)

let profile_monotone_and_consistent =
  qcase ~count:80 "profile = foremost at every departure time"
    ~print:print_params gen_small
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let a = Tgraph.lifetime net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let t = (s + 1) mod n in
        if t <> s then begin
          let steps = Profile.compute net ~source:s ~target:t in
          let previous = ref (Some 0) in
          for t0 = 1 to a + 1 do
            let direct =
              Foremost.distance (Foremost.run ~start_time:t0 net s) t
            in
            let via_profile = Profile.arrival_at steps t0 in
            if via_profile <> direct then ok := false;
            (* Non-decreasing (None = infinity). *)
            (match (!previous, direct) with
            | Some p, Some d -> if t0 > 1 && d < p then ok := false
            | None, Some _ -> if t0 > 1 then ok := false
            | _ -> ());
            previous := direct
          done
        end
      done;
      !ok)

let profile_bad_args () =
  Alcotest.check_raises "bad endpoints"
    (Invalid_argument "Profile.compute: endpoint out of range") (fun () ->
      ignore (Profile.compute (fixture ()) ~source:0 ~target:9))

(* --------------------------------------------------------------- *)
(* Restless *)

let restless_chain () =
  (* Path 0-1-2-3 with labels 1, 2, 5: delta 1 breaks at the gap 2->5,
     delta 3 crosses it. *)
  let g = Graph.create Undirected ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let net =
    Tgraph.create g ~lifetime:5
      [| Label.singleton 1; Label.singleton 2; Label.singleton 5 |]
  in
  let tight = Restless.run ~delta:1 net 0 in
  check_int_option "reaches 2" (Some 2) (Restless.distance tight 2);
  check_bool "gap too wide" true (Restless.distance tight 3 = None);
  check_int "three reachable" 3 (Restless.reachable_count tight);
  let loose = Restless.run ~delta:3 net 0 in
  check_int_option "gap crossed" (Some 5) (Restless.distance loose 3);
  check_int "all reachable" 4 (Restless.reachable_count loose)

let restless_source_launches_late () =
  (* The source may wait arbitrarily long before the first hop. *)
  let g = Graph.create Undirected ~n:2 [ (0, 1) ] in
  let net = Tgraph.create g ~lifetime:9 [| Label.singleton 9 |] in
  let r = Restless.run ~delta:1 net 0 in
  check_int_option "launch at 9" (Some 9) (Restless.distance r 1)

let restless_walks_beat_paths () =
  (* A restless WALK can bounce to refresh its waiting budget where no
     simple path can: 0-1@1, 1-2@{2,3}, 2-3@4 with delta 1 needs the
     bounce 1->2@2, 2->1? no — construct: 0-1@1, 1-2@2, 2-1@3, 1-3@4:
     walk 0,1,2,1,3 arrives; the simple path 0-1-3 needs 1->3 within
     delta of 1, label 4 > 1+1. *)
  let g = Graph.create Undirected ~n:4 [ (0, 1); (1, 2); (1, 3) ] in
  let net =
    Tgraph.create g ~lifetime:4
      [| Label.singleton 1; Label.of_list [ 2; 3 ]; Label.singleton 4 |]
  in
  let walk = Restless.run ~delta:1 net 0 in
  check_int_option "walk reaches 3" (Some 4) (Restless.distance walk 3);
  check_bool "no simple restless path" false
    (Restless.path_exists_exhaustive ~delta:1 net ~s:0 ~t:3)

let restless_path_exhaustive_basic () =
  let net = fixture () in
  check_bool "generous delta finds a path" true
    (Restless.path_exists_exhaustive ~delta:8 net ~s:0 ~t:2);
  check_bool "s = t trivial" true
    (Restless.path_exists_exhaustive ~delta:1 net ~s:3 ~t:3)

let restless_validations () =
  let net = fixture () in
  Alcotest.check_raises "delta < 1"
    (Invalid_argument "Restless.run: delta must be >= 1") (fun () ->
      ignore (Restless.run ~delta:0 net 0));
  Alcotest.check_raises "bad source"
    (Invalid_argument "Restless.run: source out of range") (fun () ->
      ignore (Restless.run ~delta:1 net 77))

let restless_infinite_delta_is_foremost =
  qcase ~count:100 "delta >= lifetime recovers foremost" ~print:print_params
    gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let a = Tgraph.lifetime net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let restless = Restless.run ~delta:a net s in
        let foremost = Foremost.run net s in
        for v = 0 to n - 1 do
          if Restless.distance restless v <> Foremost.distance foremost v then
            ok := false
        done
      done;
      !ok)

let restless_monotone_in_delta =
  qcase ~count:80 "larger delta never hurts" ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let tight = Restless.run ~delta:1 net s in
        let loose = Restless.run ~delta:3 net s in
        for v = 0 to n - 1 do
          match (Restless.distance tight v, Restless.distance loose v) with
          | Some d1, Some d3 -> if d3 > d1 then ok := false
          | Some _, None -> ok := false
          | None, _ -> ()
        done
      done;
      !ok)

let restless_witnesses_valid =
  qcase ~count:80 "restless witnesses are valid journeys within the bound"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let r = Restless.run ~delta:2 net s in
        for v = 0 to n - 1 do
          match Restless.journey_to r v with
          | None -> if Restless.distance r v <> None then ok := false
          | Some [] -> if v <> s then ok := false
          | Some journey ->
            if not (Journey.is_journey net ~source:s ~target:v journey) then
              ok := false;
            if not (Restless.is_restless r journey) then ok := false;
            if Journey.arrival journey <> Restless.distance r v then ok := false
        done
      done;
      !ok)

let restless_path_implies_walk =
  qcase ~count:80 "a restless simple path implies walk reachability"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let s = 0 and t = n - 1 in
      s = t
      ||
      let path = Restless.path_exists_exhaustive ~delta:2 net ~s ~t in
      let walk = Restless.distance (Restless.run ~delta:2 net s) t <> None in
      (not path) || walk)

(* --------------------------------------------------------------- *)
(* Robustness *)

let robustness_star_attack () =
  (* Degree-targeting a star removes the centre first, collapsing all
     leaf-to-leaf reachability at once. *)
  let net = Opt.star_two_labels (Sgraph.Gen.star 10) in
  match Robustness.targeted_attack net ~by:`Degree ~steps:1 with
  | [ step ] ->
    check_int "the centre dies first" 0 step.removed;
    check_int "nine survivors" 9 step.survivors;
    check_int "no pairs left" 0 step.reachable_pairs;
    check_float "reachability zero" 0. step.reachability
  | _ -> Alcotest.fail "expected exactly one step"

let robustness_random_failures () =
  let net = fixture () in
  let steps = Robustness.random_failures (rng ()) net ~steps:2 in
  check_int "two steps" 2 (List.length steps);
  List.iteri
    (fun i (step : Robustness.step) ->
      check_int "survivor count decreases" (4 - i) step.survivors;
      check_bool "reachability a proportion" true
        (step.reachability >= 0. && step.reachability <= 1.))
    steps

let robustness_stops_at_two () =
  let net = fixture () in
  let steps = Robustness.targeted_attack net ~by:`Closeness ~steps:99 in
  (* From 5 vertices: removals leave 4, 3, 2 — then stop. *)
  check_int "three steps" 3 (List.length steps)

let robustness_invalid () =
  Alcotest.check_raises "negative steps"
    (Invalid_argument "Robustness: steps must be >= 0") (fun () ->
      ignore (Robustness.targeted_attack (fixture ()) ~by:`Degree ~steps:(-1)))

let robustness_removed_are_original_ids =
  qcase ~count:30 "removed ids are distinct original vertices"
    ~print:print_params gen_small_nets
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let steps = Robustness.random_failures (rng ()) net ~steps:n in
      let ids = List.map (fun (s : Robustness.step) -> s.removed) steps in
      List.length (List.sort_uniq compare ids) = List.length ids
      && List.for_all (fun v -> v >= 0 && v < n) ids)

let suites =
  [
    ( "temporal.reverse_foremost",
      [
        case "fixture" reverse_fixture;
        case "deadline restricts" reverse_deadline_restricts;
        case "bad args" reverse_bad_args;
        case "reachable count" reverse_reachable_count;
        reverse_matches_brute_force;
        reverse_journeys_valid;
      ] );
    ( "temporal.shortest",
      [
        case "fixture" shortest_fixture;
        case "hops vs arrival tradeoff" shortest_vs_foremost_tradeoff;
        shortest_reachability_agrees;
        shortest_matches_brute_force;
        shortest_journeys_valid;
        shortest_lower_bounded_by_static;
        case "pareto fixture" shortest_pareto_fixture;
        case "pareto tradeoff" shortest_pareto_tradeoff;
        shortest_pareto_properties;
        case "bad args" shortest_bad_args;
      ] );
    ( "temporal.fastest",
      [
        case "fixture" fastest_fixture;
        case "waiting pays" fastest_waiting_pays;
        fastest_matches_brute_force;
        fastest_journeys_valid;
        fastest_never_slower_than_foremost;
        case "bad source" fastest_bad_source;
      ] );
    ( "temporal.centrality",
      [
        case "bounds" centrality_fixture_bounds;
        case "star centre wins" centrality_star_centre_wins;
        case "broadcast" centrality_broadcast;
        case "reach counts" centrality_reach_counts;
        case "rank order" centrality_rank_order;
        centrality_closeness_consistent;
        case "betweenness star" centrality_betweenness_star;
        centrality_betweenness_bounds;
        case "cover fixture" centrality_cover_fixture;
        case "cover invalid" centrality_cover_invalid;
        centrality_cover_covers;
      ] );
    ( "temporal.profile",
      [
        case "fixture" profile_fixture;
        case "self profile" profile_self;
        profile_monotone_and_consistent;
        case "bad args" profile_bad_args;
      ] );
    ( "temporal.restless",
      [
        case "chain and gaps" restless_chain;
        case "late launch" restless_source_launches_late;
        case "walks beat paths" restless_walks_beat_paths;
        case "exhaustive path basics" restless_path_exhaustive_basic;
        case "validations" restless_validations;
        restless_infinite_delta_is_foremost;
        restless_monotone_in_delta;
        restless_witnesses_valid;
        restless_path_implies_walk;
      ] );
    ( "temporal.robustness",
      [
        case "star attack" robustness_star_attack;
        case "random failures" robustness_random_failures;
        case "stops at two" robustness_stops_at_two;
        case "invalid" robustness_invalid;
        robustness_removed_are_original_ids;
      ] );
  ]
