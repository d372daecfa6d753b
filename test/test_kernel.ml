(* Flat-kernel regression suite: the counting-sorted stream, the CSR
   crossing tables, the single-label fast path, and the per-domain
   workspace reuse introduced by the flat temporal core.  Everything
   here pins the new layout against either a declarative specification
   (stable sort by label) or the seed-era behaviour (full-stream sweep
   with no early exit). *)

module Graph = Sgraph.Graph
module Rng = Prng.Rng
open Temporal
open Helpers

(* ------------------------------------------------------------------ *)
(* Counting sort = stable sort by label *)

(* The specification: emit the stream in edge-id order (labels
   ascending per edge, u->v then v->u for undirected) and stable-sort
   by label.  Tgraph must produce exactly this order — the counting
   sort's stability is part of the contract, not an accident. *)
let spec_stream net =
  let g = Tgraph.graph net in
  let entries = ref [] in
  Graph.iter_edges g (fun e u v ->
      Tgraph.iter_edge_labels net e (fun l ->
          entries := (u, v, l) :: !entries;
          if not (Graph.is_directed g) then entries := (v, u, l) :: !entries));
  List.stable_sort
    (fun (_, _, l1) (_, _, l2) -> compare l1 l2)
    (List.rev !entries)

let actual_stream net =
  let entries = ref [] in
  Tgraph.iter_time_edges net (fun ~src ~dst ~label ->
      entries := (src, dst, label) :: !entries);
  List.rev !entries

let stream_is_stable_sort =
  qcase ~count:200 ~print:print_params "stream = stable sort by label"
    gen_params (fun params ->
      let net = random_tnet params in
      actual_stream net = spec_stream net)

let stream_matches_raw_arrays () =
  let net = fixture () in
  let v = Tgraph.stream net in
  check_int "stream length" (Tgraph.time_edge_count net)
    (Array.length v.Implicit.Stream.arcs);
  check_int "offsets" (Tgraph.lifetime net + 2) (Array.length v.off);
  List.iteri
    (fun i (src, dst, label) ->
      Alcotest.(check (triple int int int))
        (Printf.sprintf "time_edge %d" i) (src, dst, label)
        (Tgraph.time_edge net i))
    (actual_stream net)

(* ------------------------------------------------------------------ *)
(* Graph.of_arrays = Graph.create *)

let gen_arrays_params =
  QCheck2.Gen.(
    let* n = int_range 2 10 in
    let* seed = int_range 0 10_000 in
    let* directed = bool in
    return (n, seed, directed))

let print_arrays_params (n, seed, directed) =
  Printf.sprintf "(n=%d, seed=%d, directed=%b)" n seed directed

(* Distinct random edges as (src, dst) pairs. *)
let random_edge_list ~n ~seed ~directed =
  let rng = Rng.create seed in
  let seen = Hashtbl.create 16 in
  let edges = ref [] in
  let attempts = 2 * n in
  for _ = 1 to attempts do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let key = if directed || u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        edges := (u, v) :: !edges
      end
    end
  done;
  List.rev !edges

let graphs_agree g1 g2 =
  Graph.n g1 = Graph.n g2
  && Graph.m g1 = Graph.m g2
  && Graph.edges g1 = Graph.edges g2
  && List.for_all
       (fun v ->
         Graph.out_arcs g1 v = Graph.out_arcs g2 v
         && Graph.in_arcs g1 v = Graph.in_arcs g2 v
         && Graph.out_degree g1 v = Graph.out_degree g2 v
         && Graph.in_degree g1 v = Graph.in_degree g2 v)
       (List.init (Graph.n g1) Fun.id)

let of_arrays_matches_create =
  qcase ~count:200 ~print:print_arrays_params "of_arrays = create"
    gen_arrays_params (fun (n, seed, directed) ->
      let kind = if directed then Graph.Directed else Graph.Undirected in
      let edges = random_edge_list ~n ~seed ~directed in
      let by_list = Graph.create kind ~n edges in
      let by_arrays =
        Graph.of_arrays kind ~n
          (Array.of_list (List.map fst edges))
          (Array.of_list (List.map snd edges))
      in
      graphs_agree by_list by_arrays)

let of_arrays_validates () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_arrays: endpoint out of range (0,3)")
    (fun () -> ignore (Graph.of_arrays Directed ~n:3 [| 0 |] [| 3 |]));
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.of_arrays: self-loop") (fun () ->
      ignore (Graph.of_arrays Directed ~n:3 [| 1 |] [| 1 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Graph.of_arrays: endpoint arrays differ in length")
    (fun () -> ignore (Graph.of_arrays Directed ~n:3 [| 0; 1 |] [| 1 |]))

let trusted_generators_match_list_path () =
  (* The converted generators must produce the same graphs (same edge
     ids, same adjacency) as the historical list-based construction. *)
  let list_clique kind n =
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        let keep = match kind with
          | Graph.Directed -> u <> v
          | Graph.Undirected -> u < v
        in
        if keep then edges := (u, v) :: !edges
      done
    done;
    Graph.create kind ~n !edges
  in
  check_bool "directed clique" true
    (graphs_agree (list_clique Graph.Directed 7)
       (Sgraph.Gen.clique Directed 7));
  check_bool "undirected clique" true
    (graphs_agree (list_clique Graph.Undirected 7)
       (Sgraph.Gen.clique Undirected 7));
  let list_bipartite a b =
    let edges = ref [] in
    for u = 0 to a - 1 do
      for v = a to a + b - 1 do
        edges := (u, v) :: !edges
      done
    done;
    Graph.create Undirected ~n:(a + b) !edges
  in
  check_bool "complete bipartite" true
    (graphs_agree (list_bipartite 3 4) (Sgraph.Gen.complete_bipartite 3 4))

(* ------------------------------------------------------------------ *)
(* Single-label fast path *)

let gen_single_params =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* seed = int_range 0 10_000 in
    let* a = int_range 1 12 in
    return (n, seed, a))

let print_single_params (n, seed, a) =
  Printf.sprintf "(n=%d, seed=%d, a=%d)" n seed a

let of_flat_arcs_matches_create =
  qcase ~count:200 ~print:print_single_params
    "of_flat_arcs = create with singletons" gen_single_params
    (fun (n, seed, a) ->
      let g = random_graph ~n ~seed in
      let flat =
        Array.init (Graph.m g) (fun e -> 1 + ((seed + (7 * e)) mod a))
      in
      let by_flat = Tgraph.of_flat_arcs g ~lifetime:a (Array.copy flat) in
      let by_sets =
        Tgraph.create g ~lifetime:a (Array.map Label.singleton flat)
      in
      actual_stream by_flat = actual_stream by_sets
      && Tgraph.label_count by_flat = Tgraph.label_count by_sets
      && List.for_all
           (fun e ->
             Label.to_list (Tgraph.labels by_flat e)
             = Label.to_list (Tgraph.labels by_sets e)
             && Tgraph.edge_label_size by_flat e = 1
             && Tgraph.edge_has_label by_flat e flat.(e))
           (List.init (Graph.m g) Fun.id)
      && List.for_all
           (fun s ->
             Foremost.arrival_array (Foremost.run by_flat s)
             = Foremost.arrival_array (Foremost.run by_sets s))
           (List.init n Fun.id))

let of_flat_arcs_validates () =
  let g = Sgraph.Gen.path 3 in
  Alcotest.check_raises "lifetime"
    (Invalid_argument "Tgraph.of_flat_arcs: lifetime must be positive")
    (fun () -> ignore (Tgraph.of_flat_arcs g ~lifetime:0 [| 1; 1 |]));
  Alcotest.check_raises "length"
    (Invalid_argument "Tgraph.of_flat_arcs: one label per edge required")
    (fun () -> ignore (Tgraph.of_flat_arcs g ~lifetime:3 [| 1 |]));
  Alcotest.check_raises "positive"
    (Invalid_argument "Tgraph.of_flat_arcs: labels must be positive")
    (fun () -> ignore (Tgraph.of_flat_arcs g ~lifetime:3 [| 0; 1 |]));
  Alcotest.check_raises "beyond lifetime"
    (Invalid_argument "Tgraph.of_flat_arcs: label beyond the lifetime")
    (fun () -> ignore (Tgraph.of_flat_arcs g ~lifetime:3 [| 1; 4 |]))

(* The counting sort allocates the arc array, the O(lifetime) offsets
   and placement cursor, and a constant: nothing per edge. *)
let of_flat_arcs_allocates_no_per_edge () =
  let n = 64 in
  let g = Sgraph.Gen.clique Directed n in
  let m = Graph.m g in
  let labels = Array.init m (fun e -> 1 + (e * 7 mod n)) in
  let net, words =
    allocated_words (fun () -> Tgraph.of_flat_arcs g ~lifetime:n labels)
  in
  let arrays = float_of_int ((m + 1) + (n + 3) + (n + 2)) in
  check_int "stream built" m (Tgraph.time_edge_count net);
  check_bool
    (Printf.sprintf "%.0f words for m = %d (arcs + offsets + cursor = %.0f)"
       words m arrays)
    true
    (words >= arrays && words <= arrays +. 128.)

let scalar_queries_match_label_sets =
  qcase ~count:200 ~print:print_params "scalar edge queries = Label ops"
    gen_params (fun params ->
      let net = random_tnet params in
      let g = Tgraph.graph net in
      List.for_all
        (fun e ->
          let ls = Tgraph.labels net e in
          Tgraph.edge_label_size net e = Label.size ls
          && List.for_all
               (fun x ->
                 Tgraph.edge_has_label net e x = Label.mem ls x
                 && Tgraph.edge_next_label_after net e x = Label.next_after ls x
                 && Tgraph.edge_next_label_in net e ~lo:x ~hi:(x + 3)
                    = Label.next_in ls ~lo:x ~hi:(x + 3))
               (List.init 14 Fun.id))
        (List.init (Graph.m g) Fun.id))

(* ------------------------------------------------------------------ *)
(* Foremost: early exit and borrowed workspace vs the seed sweep *)

(* The seed-era sweep: full stream, no early exit, fresh arrays. *)
let seed_sweep ?(start_time = 1) net s =
  let n = Tgraph.n net in
  let arrival = Array.make n max_int in
  arrival.(s) <- start_time - 1;
  Tgraph.iter_time_edges net (fun ~src ~dst ~label ->
      if arrival.(src) < label && label < arrival.(dst) then
        arrival.(dst) <- label);
  arrival

let run_matches_seed_sweep =
  qcase ~count:300 ~print:print_params "run = seed full-stream sweep"
    gen_params (fun (n, seed, a, r) ->
      let net = random_tnet (n, seed, a, r) in
      let start_time = 1 + (seed mod 3) in
      List.for_all
        (fun s ->
          Foremost.arrival_array (Foremost.run ~start_time net s)
          = seed_sweep ~start_time net s)
        (List.init n Fun.id))

let borrowed_matches_run =
  qcase ~count:200 ~print:print_params "arrivals_borrowed = run" gen_params
    (fun (n, seed, a, r) ->
      let net = random_tnet (n, seed, a, r) in
      List.for_all
        (fun s ->
          let borrowed = Foremost.arrivals_borrowed net s in
          let fresh = Foremost.arrival_array (Foremost.run net s) in
          Array.sub borrowed 0 n = fresh)
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Workspace reuse across domains *)

let workspace_grows_and_reuses () =
  let ws16 = Workspace.get ~n:10 in
  check_bool "capacity >= n" true (Array.length ws16.Workspace.arrival >= 10);
  let again = Workspace.get ~n:4 in
  check_bool "same arrays reused" true
    (ws16.Workspace.arrival == again.Workspace.arrival);
  let bigger = Workspace.get ~n:1000 in
  check_bool "grown" true (Array.length bigger.Workspace.arrival >= 1000);
  Alcotest.check_raises "negative" (Invalid_argument "Workspace.get: negative size")
    (fun () -> ignore (Workspace.get ~n:(-1)))

let parallel_workspace_reentrant () =
  (* Distinct-size networks interleaved across 4 worker domains: each
     domain's workspace is repeatedly borrowed, resized, and reused.
     Results must match the sequential run exactly. *)
  let nets =
    Array.init 12 (fun i ->
        let n = 4 + (3 * (i mod 4)) in
        Assignment.uniform_single (Rng.create (100 + i))
          (Sgraph.Gen.clique Directed n) ~a:n)
  in
  let work i =
    let net = nets.(i mod Array.length nets) in
    (Distance.instance_diameter net, Reachability.reachable_pair_count net)
  in
  let sequential = Array.init 48 work in
  let pool = Exec.Pool.create ~jobs:4 in
  let parallel = Exec.Pool.map_range pool ~lo:0 ~hi:48 work in
  Exec.Pool.shutdown pool;
  Alcotest.(check (array (pair (option int) int)))
    "parallel = sequential" sequential parallel

let e1_render_matches_across_jobs () =
  (* The end-to-end reentrancy contract: a full experiment rendered at
     -j1 and -j4 in the same process, byte for byte. *)
  match Sim.Experiments.find "e1" with
  | None -> Alcotest.fail "e1 not registered"
  | Some e1 ->
    let restore = Exec.Config.jobs () in
    let render jobs =
      Exec.Pool.set_jobs jobs;
      Sim.Outcome.render (e1.run ~quick:true ~seed:Sim.Experiments.default_seed)
    in
    let seq = render 1 in
    let par = render 4 in
    Exec.Pool.set_jobs restore;
    Alcotest.(check string) "renders byte-identical" seq par

let suites =
  [
    ( "kernel.stream",
      [
        stream_is_stable_sort;
        case "stream raw arrays" stream_matches_raw_arrays;
      ] );
    ( "kernel.csr",
      [
        of_arrays_matches_create;
        case "of_arrays validations" of_arrays_validates;
        case "trusted generators" trusted_generators_match_list_path;
      ] );
    ( "kernel.single-label",
      [
        of_flat_arcs_matches_create;
        case "of_flat_arcs validations" of_flat_arcs_validates;
        case "of_flat_arcs allocates nothing per edge"
          of_flat_arcs_allocates_no_per_edge;
        scalar_queries_match_label_sets;
      ] );
    ( "kernel.foremost",
      [ run_matches_seed_sweep; borrowed_matches_run ] );
    ( "kernel.workspace",
      [
        case "grow and reuse" workspace_grows_and_reuses;
        case "parallel reentrancy" parallel_workspace_reentrant;
        case "e1 render -j1 = -j4" e1_render_matches_across_jobs;
      ] );
  ]
