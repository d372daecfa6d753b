(* Bit-parallel batch kernel suite: the QCheck equivalence oracle
   against per-source Foremost sweeps (Sets and Single labellings,
   ragged batches), the per-lane readouts, the pow2-words workspace
   growth rule, the all-pairs consumers against per-source Foremost
   references, and job-count determinism of the pooled batch
   driver. *)

module Graph = Sgraph.Graph
module Rng = Prng.Rng
open Temporal
open Helpers

(* ------------------------------------------------------------------ *)
(* Bit utilities *)

let bit_utils () =
  check_int "popcount 0" 0 (Batch.popcount 0);
  check_int "popcount 1" 1 (Batch.popcount 1);
  check_int "popcount -1" Sys.int_size (Batch.popcount (-1));
  check_int "popcount max_int" (Sys.int_size - 1) (Batch.popcount max_int);
  check_int "popcount min_int" 1 (Batch.popcount min_int);
  check_int "popcount 0b1011" 3 (Batch.popcount 0b1011)

let batch_shapes () =
  check_int "lane_width is the word size" Sys.int_size Batch.lane_width;
  check_int "one ragged batch" 1 (Batch.batch_count ~n:5);
  check_int "exact batches" 2 (Batch.batch_count ~n:(2 * Batch.lane_width));
  check_int "ragged tail batch" 3
    (Batch.batch_count ~n:((2 * Batch.lane_width) + 1));
  let n = Batch.lane_width + 7 in
  let tail = Batch.batch_sources ~n 1 in
  check_int "tail width" 7 (Array.length tail);
  check_int "tail first source" Batch.lane_width tail.(0)

(* ------------------------------------------------------------------ *)
(* Equivalence oracle: batched arrivals = per-source Foremost, for both
   labellings, any start time, and every batch shape (n <= 8 always
   exercises a ragged batch; the fixed cases below add full words and
   full-word-plus-ragged-tail shapes). *)

let check_against_foremost ?(start_time = 1) net =
  let n = Tgraph.n net in
  let ok = ref true in
  let batches = Batch.batch_count ~n in
  for b = 0 to batches - 1 do
    let sources = Batch.batch_sources ~n b in
    let t = Batch.sweep ~start_time net ~sources in
    let row = Array.make n (-1) in
    Array.iteri
      (fun lane s ->
        let oracle = Foremost.run ~start_time net s in
        let oracle_arrival = Foremost.arrival_array oracle in
        Batch.arrivals_into t ~lane row;
        for v = 0 to n - 1 do
          if row.(v) <> oracle_arrival.(v) then ok := false;
          if Batch.arrival t ~lane v <> oracle_arrival.(v) then ok := false;
          let reached = Batch.reached_word t v land (1 lsl lane) <> 0 in
          if reached <> (oracle_arrival.(v) < max_int) then ok := false
        done;
        if Batch.reached_count t ~lane <> Foremost.reachable_count oracle then
          ok := false;
        if Batch.eccentricity t ~lane <> Foremost.max_distance oracle then
          ok := false;
        if Batch.source t lane <> s then ok := false)
      sources
  done;
  !ok

let oracle_sets =
  qcase ~count:150 ~print:print_params
    "batched arrivals = Foremost (Sets labelling)" gen_params (fun params ->
      check_against_foremost (random_tnet params))

let oracle_single =
  qcase ~count:150 ~print:print_params
    "batched arrivals = Foremost (Single labelling)" gen_params
    (fun (n, seed, a, _) ->
      let g = random_graph ~n ~seed in
      let net = Assignment.uniform_single (Rng.create (seed + 1)) g ~a in
      check_against_foremost net)

let oracle_start_time =
  qcase ~count:80 ~print:print_params "batched arrivals = Foremost (start_time 3)"
    gen_params (fun params ->
      check_against_foremost ~start_time:3 (random_tnet params))

(* The eccentricity-only sweep must agree with folding the full sweep's
   per-lane eccentricities — including None on any incomplete lane —
   for every batch shape and a later start time. *)
let batch_ecc_fold ?start_time net sources =
  let t = Batch.sweep ?start_time net ~sources in
  let rec scan worst lane =
    if lane >= Batch.lanes t then Some worst
    else
      match Batch.eccentricity t ~lane with
      | None -> None
      | Some e -> scan (Stdlib.max worst e) (lane + 1)
  in
  scan 0 0

let oracle_sweep_diameter =
  qcase ~count:150 ~print:print_params
    "sweep_diameter = eccentricity fold of the full sweep" gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let ok = ref true in
      for b = 0 to Batch.batch_count ~n - 1 do
        let sources = Batch.batch_sources ~n b in
        if Batch.sweep_diameter net ~sources <> batch_ecc_fold net sources
        then ok := false;
        if
          Batch.sweep_diameter ~start_time:3 net ~sources
          <> batch_ecc_fold ~start_time:3 net sources
        then ok := false
      done;
      !ok)

(* Full-word and ragged-tail batch shapes around the lane width. *)
let oracle_word_boundaries () =
  List.iter
    (fun n ->
      let g = Sgraph.Gen.clique Directed n in
      let net = Assignment.normalized_uniform (rng ~seed:(900 + n) ()) g in
      check_bool (Printf.sprintf "clique n=%d matches Foremost" n) true
        (check_against_foremost net))
    [
      Batch.lane_width - 1; Batch.lane_width; Batch.lane_width + 1;
      (2 * Batch.lane_width) + 5;
    ]

let oracle_fixture () =
  check_bool "fixture matches Foremost" true (check_against_foremost (fixture ()));
  check_bool "directed line matches Foremost" true
    (check_against_foremost (directed_line ()))

let sweep_argument_checks () =
  let net = fixture () in
  Alcotest.check_raises "empty sources"
    (Invalid_argument "Batch.sweep: need 1 .. lane_width sources") (fun () ->
      ignore (Batch.sweep net ~sources:[||]));
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Batch.sweep: source out of range") (fun () ->
      ignore (Batch.sweep net ~sources:[| 99 |]));
  Alcotest.check_raises "bad start time"
    (Invalid_argument "Batch.sweep: start_time must be >= 1") (fun () ->
      ignore (Batch.sweep ~start_time:0 net ~sources:[| 0 |]))

(* Duplicate sources: lanes are independent, so twin lanes must agree. *)
let duplicate_lanes () =
  let net = fixture () in
  let t = Batch.sweep net ~sources:[| 2; 2; 0 |] in
  for v = 0 to 4 do
    check_int
      (Printf.sprintf "twin lanes agree at %d" v)
      (Batch.arrival t ~lane:0 v)
      (Batch.arrival t ~lane:1 v)
  done;
  check_int "twin reach counts" (Batch.reached_count t ~lane:0)
    (Batch.reached_count t ~lane:1)

(* ------------------------------------------------------------------ *)
(* Workspace growth: batch slots round to a power of two of their own
   word counts — the arrival matrix in particular is pow2(n * lanes),
   not pow2(n) * lanes — and growth feeds kernel.workspace_growths. *)

let is_pow2 x = x > 0 && x land (x - 1) = 0

let workspace_pow2_words () =
  let probe n =
    let g = Sgraph.Gen.clique Directed n in
    let net = Assignment.normalized_uniform (rng ~seed:n ()) g in
    ignore (Batch.sweep net ~sources:(Batch.batch_sources ~n 0));
    Workspace.get_batch ~n ~lanes:1
  in
  List.iter
    (fun n ->
      let ws = probe n in
      let words = Array.length ws.Workspace.lane_reached in
      check_bool
        (Printf.sprintf "bitset words pow2 at n=%d" n)
        true
        (is_pow2 words && words >= n);
      check_int "delta matches bitset capacity" words
        (Array.length ws.Workspace.lane_delta);
      check_int "dirty holds bitset capacity + 1" (words + 1)
        (Array.length ws.Workspace.lane_dirty);
      let matrix = Array.length ws.Workspace.lane_arrival in
      let lanes = Stdlib.min n Batch.lane_width in
      check_bool
        (Printf.sprintf "arrival matrix pow2 words at n=%d" n)
        true
        (is_pow2 matrix && matrix >= n * lanes);
      check_int "per-lane counts at full width" Batch.lane_width
        (Array.length ws.Workspace.lane_counts))
    [ 5; 40; 70 ]

let workspace_growth_counted () =
  let count () =
    Obs.Metrics.count (Obs.Metrics.counter "kernel.workspace_growths")
  in
  Obs.Metrics.reset ();
  Obs.Control.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Control.set_enabled false)
    (fun () ->
      let d =
        Domain.spawn (fun () ->
            (* Fresh domain = fresh DLS workspace: from-scratch growth. *)
            let before = count () in
            let g = Sgraph.Gen.clique Directed 40 in
            let net = Assignment.normalized_uniform (rng ()) g in
            ignore (Batch.sweep net ~sources:(Batch.batch_sources ~n:40 0));
            let after_small = count () in
            let g2 = Sgraph.Gen.clique Directed 80 in
            let net2 = Assignment.normalized_uniform (rng ()) g2 in
            ignore (Batch.sweep net2 ~sources:(Batch.batch_sources ~n:80 0));
            (before, after_small, count ()))
      in
      let before, after_small, after_large = Domain.join d in
      check_bool "first batch sweep grows" true (after_small > before);
      check_bool "larger n grows again" true (after_large > after_small))

(* ------------------------------------------------------------------ *)
(* The dirty stack's limit.  [scan_group] writes the stack's top on
   every arc, so in a group that dirties every vertex the arcs after
   the last first touch write slot [n], the spare one.  Each kernel
   must still give the scalar sweep's answers, with repeated sources
   and at n = 1 too. *)

(* [sweep], [sweep_diameter] and [sweep_reach] on one source batch,
   each against the lanes' scalar [Foremost.arrivals_borrowed] rows. *)
let kernels_match_scalar what net sources =
  let n = Tgraph.n net in
  let rows =
    Array.map (fun s -> Array.sub (Foremost.arrivals_borrowed net s) 0 n) sources
  in
  let complete row = not (Array.mem max_int row) in
  let t = Batch.sweep net ~sources in
  Array.iteri
    (fun lane row ->
      let what = Printf.sprintf "%s, lane %d" what lane in
      let out = Array.make n 0 in
      Batch.arrivals_into t ~lane out;
      Alcotest.(check (array int)) (what ^ ": sweep arrivals") row out;
      Alcotest.(check (option int))
        (what ^ ": sweep eccentricity")
        (if complete row then Some (Array.fold_left max 0 row) else None)
        (Batch.eccentricity t ~lane))
    rows;
  Alcotest.(check (option int))
    (what ^ ": sweep_diameter")
    (if Array.for_all complete rows then
       Some (Array.fold_left (Array.fold_left max) 0 rows)
     else None)
    (Batch.sweep_diameter net ~sources);
  let r = Batch.sweep_reach net ~sources in
  Array.iteri
    (fun lane row ->
      let what = Printf.sprintf "%s, lane %d" what lane in
      for v = 0 to n - 1 do
        check_bool
          (Printf.sprintf "%s: sweep_reach reaches %d" what v)
          (row.(v) < max_int)
          (Batch.reached_word r v land (1 lsl lane) <> 0)
      done;
      check_int (what ^ ": sweep_reach count")
        (Array.fold_left (fun c a -> if a < max_int then c + 1 else c) 0 row)
        (Batch.reached_count r ~lane))
    rows

let constant_clique kind n =
  let g = Sgraph.Gen.clique kind n in
  Tgraph.of_flat_arcs g ~lifetime:1 (Array.make (Graph.m g) 1)

(* One label on every edge dirties every vertex in the one group, and
   a fresh domain's stack holds [capacity_for n + 1] slots, exactly
   [n + 1] at n = 16 and 64: the spare slot is written.  The stack's
   length is checked before any kernel runs on it. *)
let dirty_stack_limit () =
  List.iter
    (fun n ->
      Domain.join
        (Domain.spawn (fun () ->
             check_int
               (Printf.sprintf "n=%d: the stack has n + 1 slots" n)
               (n + 1)
               (Array.length (Workspace.get_batch_planes ~n).Workspace.lane_dirty);
             List.iter
               (fun (name, kind) ->
                 let net = constant_clique kind n in
                 for b = 0 to Batch.batch_count ~n - 1 do
                   kernels_match_scalar
                     (Printf.sprintf "%s clique n=%d, batch %d" name n b)
                     net (Batch.batch_sources ~n b)
                 done)
               [ ("directed", Graph.Directed); ("undirected", Graph.Undirected) ])))
    [ 16; 64 ]

let repeated_sources () =
  let g = Sgraph.Gen.clique Directed 16 in
  let random = Assignment.normalized_uniform (rng ~seed:77 ()) g in
  let all_on v = Array.make Batch.lane_width v in
  List.iter
    (fun (what, net, sources) -> kernels_match_scalar what net sources)
    [
      ("random clique, twins", random, [| 3; 3; 7; 3 |]);
      ("random clique, every lane on one vertex", random, all_on 5);
      ("constant clique, every lane on one vertex", constant_clique Directed 16, all_on 5);
      ("constant clique, two vertices", constant_clique Undirected 16, [| 2; 9; 2; 9 |]);
      ("directed line, twins", directed_line (), [| 2; 2; 0 |]);
      ("directed line, every lane on one vertex", directed_line (), all_on 1);
    ]

let single_vertex () =
  let net = Tgraph.of_flat_arcs (Sgraph.Gen.clique Directed 1) ~lifetime:1 [||] in
  kernels_match_scalar "n = 1" net [| 0 |];
  kernels_match_scalar "n = 1, every lane" net (Array.make Batch.lane_width 0)

(* ------------------------------------------------------------------ *)
(* Consumers: batched results = per-source Foremost references, and
   instance_diameter = the kept instance_diameter_scalar. *)

let consumers_match =
  qcase ~count:100 ~print:print_params "diameter/reachability consumers match"
    gen_params (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      Distance.instance_diameter net = Distance.instance_diameter_scalar net
      && Distance.all_pairs net
         = Array.init n (fun u ->
               let arrival = Foremost.arrival_array (Foremost.run net u) in
               arrival.(u) <- 0;
               Array.sub arrival 0 n)
      && Reachability.reachable_pair_count net
         = Array.fold_left ( + ) 0
             (Array.init n (fun u ->
                  Foremost.reachable_count (Foremost.run net u) - 1))
      && Reachability.treach net
         = (Reachability.missing_pairs net = []))

let closeness_matches =
  qcase ~count:60 ~print:print_params "closeness/reach_counts match scalar"
    gen_params (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let scalar_out =
        Array.init n (fun u ->
            let arrivals = Foremost.arrival_array (Foremost.run net u) in
            let total = ref 0. in
            for v = 0 to n - 1 do
              if v <> u && arrivals.(v) > 0 && arrivals.(v) < max_int then
                total := !total +. (1. /. float_of_int arrivals.(v))
            done;
            (* Multiply by the reciprocal exactly as Centrality.normalise
               does — dividing here would differ in the last ulp. *)
            if n <= 1 then !total
            else !total *. (1. /. float_of_int (n - 1)))
      in
      Centrality.out_closeness net = scalar_out
      && Centrality.reach_counts net
         = Array.init n (fun u ->
               Foremost.reachable_count (Foremost.run net u)))

(* missing_pairs keeps its ascending (u, v) order. *)
let missing_pairs_order () =
  let net = directed_line () in
  (* 2 -> 0 at label 2 then nothing onward: several pairs are statically
     but not temporally connected. *)
  let pairs = Reachability.missing_pairs net in
  check_bool "ascending order" true
    (List.sort compare pairs = pairs);
  List.iter
    (fun (u, v) ->
      check_bool
        (Printf.sprintf "pair (%d,%d) genuinely missing" u v)
        false
        (Reachability.temporally_reachable net u v))
    pairs

(* ------------------------------------------------------------------ *)
(* Determinism: the pooled batch driver returns identical values at any
   job count, and probes stay job-count-invariant. *)

let pooled_determinism () =
  let n = (2 * Batch.lane_width) + 9 in
  let g = Sgraph.Gen.clique Directed n in
  let net = Assignment.normalized_uniform (rng ~seed:4242 ()) g in
  let run jobs =
    let pool = Exec.Pool.create ~jobs in
    Fun.protect
      ~finally:(fun () -> Exec.Pool.shutdown pool)
      (fun () ->
        (* Route through the global-pool driver by temporarily resizing
           the global pool instead: simpler to just compare the
           consumer results, which is what the contract promises. *)
        Exec.Pool.set_jobs jobs;
        ( Distance.instance_diameter net,
          Reachability.reachable_pair_count net,
          Centrality.reach_counts net ))
  in
  let d1, r1, c1 = run 1 in
  let d4, r4, c4 = run 4 in
  Exec.Pool.set_jobs 1;
  Alcotest.(check (option int)) "diameter identical at -j1/-j4" d1 d4;
  check_int "pair count identical at -j1/-j4" r1 r4;
  check_bool "reach counts identical at -j1/-j4" true (c1 = c4)

let probes_deterministic () =
  let n = Batch.lane_width + 3 in
  let g = Sgraph.Gen.clique Directed n in
  let net = Assignment.normalized_uniform (rng ~seed:7 ()) g in
  let counters jobs =
    Obs.Metrics.reset ();
    Obs.Control.set_enabled true;
    Exec.Pool.set_jobs jobs;
    ignore (Distance.instance_diameter net);
    Obs.Control.set_enabled false;
    let c name = Obs.Metrics.count (Obs.Metrics.counter name) in
    (c "kernel.batch_sweeps", c "kernel.batch_edges_scanned",
     c "kernel.lane_saturations")
  in
  let s1, e1, l1 = counters 1 in
  let s4, e4, l4 = counters 4 in
  Exec.Pool.set_jobs 1;
  check_int "two batches swept" 2 s1;
  check_int "sweeps job-invariant" s1 s4;
  check_int "edges scanned job-invariant" e1 e4;
  check_int "every lane saturated (clique)" n l1;
  check_int "saturations job-invariant" l1 l4

let suites =
  [
    ( "batch",
      [
        case "bit utilities" bit_utils;
        case "batch shapes" batch_shapes;
        oracle_sets;
        oracle_single;
        oracle_start_time;
        oracle_sweep_diameter;
        case "word-boundary batch shapes" oracle_word_boundaries;
        case "fixture oracle" oracle_fixture;
        case "argument checks" sweep_argument_checks;
        case "duplicate sources share results" duplicate_lanes;
        case "every vertex dirty: the spare stack slot" dirty_stack_limit;
        case "repeated sources = scalar" repeated_sources;
        case "one vertex = scalar" single_vertex;
        case "workspace rounds to pow2 words" workspace_pow2_words;
        case "workspace growth counted per domain" workspace_growth_counted;
        consumers_match;
        closeness_matches;
        case "missing_pairs ascending order" missing_pairs_order;
        case "pooled consumers identical across job counts" pooled_determinism;
        case "batch probes job-invariant" probes_deterministic;
      ] );
  ]
