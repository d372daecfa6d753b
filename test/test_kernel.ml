(* Flat-kernel regression suite: the counting-sorted stream, the CSR
   crossing tables, the single-label fast path and its lazily placed
   stored stream, and the per-domain workspace reuse introduced by the
   flat temporal core.  Everything
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
(* Edge-id iteration *)

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

(* The generators must produce the same graphs (same edge ids, same
   adjacency through the array accessors) as the list-based
   construction of [Helpers]. *)
let trusted_generators_match_list_path () =
  check_bool "directed clique" true
    (graphs_agree (csr_clique Directed 7) (Sgraph.Gen.clique Directed 7));
  check_bool "undirected clique" true
    (graphs_agree (csr_clique Undirected 7) (Sgraph.Gen.clique Undirected 7));
  check_bool "star" true (graphs_agree (csr_star 9) (Sgraph.Gen.star 9));
  check_bool "grid" true (graphs_agree (csr_grid 3 4) (Sgraph.Gen.grid 3 4))

(* [Graph.iter_edge_ids] visits exactly the listed ids, in list order,
   with the endpoints [iter_edges] gives them, on a CSR graph and on
   every shape (a transposed directed clique too), and allocates nothing. *)
let iter_edge_ids_matches_iter_edges () =
  let graphs =
    [
      ("csr directed", Graph.create Directed ~n:9 (random_edge_list ~n:9 ~seed:3 ~directed:true));
      ("csr undirected", Graph.create Undirected ~n:9 (random_edge_list ~n:9 ~seed:3 ~directed:false));
      ("clique directed", Sgraph.Gen.clique Directed 9);
      ("clique transposed", Graph.reverse (Sgraph.Gen.clique Directed 9));
      ("clique undirected", Sgraph.Gen.clique Undirected 9);
      ("star", Sgraph.Gen.star 9);
      ("grid", Sgraph.Gen.grid 3 4);
      ("column", Sgraph.Gen.grid 5 1);
    ]
  in
  List.iter
    (fun (name, g) ->
      let m = Graph.m g in
      let all = Array.make m (0, 0) in
      Graph.iter_edges g (fun e u v -> all.(e) <- (u, v));
      (* Every third edge, then the same ids backwards, past [len]. *)
      let ids = Array.of_list (List.filter (fun e -> e mod 3 <> 1) (List.init m Fun.id)) in
      let ids = Array.append ids (Array.of_list (List.rev (Array.to_list ids))) in
      let len = Array.length ids - 1 in
      let seen = ref [] in
      Graph.iter_edge_ids g ids ~len (fun e u v -> seen := (e, u, v) :: !seen);
      Alcotest.(check (list (triple int int int)))
        (name ^ ": listed edges, in order")
        (List.init len (fun j ->
             let e = ids.(j) in
             (e, fst all.(e), snd all.(e))))
        (List.rev !seen);
      let sum = ref 0 in
      let words len =
        snd
          (allocated_words (fun () ->
               Graph.iter_edge_ids g ids ~len (fun e u v ->
                   sum := !sum + e + u + v)))
      in
      let one = words 1 and every = words len in
      check_bool
        (Printf.sprintf "%s: %.0f words for one id, %.0f for %d" name one every
           len)
        true
        (one <= 32. && every = one);
      Alcotest.check_raises (name ^ ": bad id")
        (Invalid_argument "Graph.iter_edge_ids: bad edge id") (fun () ->
          Graph.iter_edge_ids g [| m |] ~len:1 (fun _ _ _ -> ()));
      Alcotest.check_raises (name ^ ": length")
        (Invalid_argument "Graph.iter_edge_ids: length outside the id array")
        (fun () -> Graph.iter_edge_ids g [| 0 |] ~len:2 (fun _ _ _ -> ())))
    graphs

(* A clique's [iter_edge_ids] decodes an id's source block once and
   reuses it while the ids stay inside: every listed id must still get
   [Graph.edge_endpoints]' pair, in list order, whatever the order.
   Ascending lists (a first band's) at several densities, descending
   ones, and random ids with repeats, on the directed, transposed and
   undirected clique; n = 2 has one-edge blocks. *)
let iter_edge_ids_clique_qc =
  qcase ~count:300 "clique iter_edge_ids = edge_endpoints"
    ~print:(fun (shape, n, order, seed) ->
      Printf.sprintf "(shape=%d, n=%d, order=%d, seed=%d)" shape n order seed)
    QCheck2.Gen.(
      let* shape = int_range 0 2 in
      let* n = int_range 2 40 in
      let* order = int_range 0 2 in
      let* seed = int in
      return (shape, n, order, seed))
    (fun (shape, n, order, seed) ->
      let g =
        match shape with
        | 0 -> Sgraph.Gen.clique Directed n
        | 1 -> Graph.reverse (Sgraph.Gen.clique Directed n)
        | _ -> Sgraph.Gen.clique Undirected n
      in
      let m = Graph.m g in
      let r = Rng.create seed in
      let ascending () =
        let keep = 1 + Rng.int r 8 in
        List.filter (fun _ -> Rng.int r keep = 0) (List.init m Fun.id)
      in
      let ids =
        Array.of_list
          (match order with
          | 0 -> ascending ()
          | 1 -> List.rev (ascending ())
          | _ -> List.init (2 * m) (fun _ -> Rng.int r m))
      in
      let seen = ref [] in
      Graph.iter_edge_ids g ids ~len:(Array.length ids) (fun e u v ->
          seen := (e, u, v) :: !seen);
      List.rev !seen
      = List.map
          (fun e ->
            let u, v = Graph.edge_endpoints g e in
            (e, u, v))
          (Array.to_list ids))

(* ------------------------------------------------------------------ *)
(* Single-label fast path *)

(* Short lifetimes, and both sides of the cell limit: 65535, the
   largest label a two-byte cell holds, and 65536, which takes label
   sets. *)
let gen_single_params =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* seed = int_range 0 10_000 in
    let* a = frequency [ (3, int_range 1 12); (1, oneofl [ 65535; 65536 ]) ] in
    return (n, seed, a))

let print_single_params (n, seed, a) =
  Printf.sprintf "(n=%d, seed=%d, a=%d)" n seed a

(* At a long lifetime, a third of the labels in the first band and the
   rest among the top twelve. *)
let flat_label ~seed ~a e =
  if a <= 12 then 1 + ((seed + (7 * e)) mod a)
  else if e mod 3 = 0 then 1 + ((seed + e) mod 70)
  else a - ((seed + (7 * e)) mod 12)

(* [of_flat_arcs] copies the labels: writing the caller's array
   afterwards changes nothing. *)
let of_flat_arcs_matches_create =
  qcase ~count:200 ~print:print_single_params
    "of_flat_arcs = create with singletons" gen_single_params
    (fun (n, seed, a) ->
      let g = random_graph ~n ~seed in
      let flat = Array.init (Graph.m g) (flat_label ~seed ~a) in
      let given = Array.copy flat in
      let by_flat = Tgraph.of_flat_arcs g ~lifetime:a given in
      Array.fill given 0 (Array.length given) 0;
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
    (fun () -> ignore (Tgraph.of_flat_arcs g ~lifetime:3 [| 1; 4 |]));
  (* The same checks where the pass also lists the first band, the
     first offender in edge order named, with bad labels on both sides
     of the cut and more of them than the list has room for. *)
  let clique = Sgraph.Gen.clique Directed 20 in
  let m = Graph.m clique in
  List.iter
    (fun (what, message, labels) ->
      Alcotest.check_raises what (Invalid_argument message) (fun () ->
          ignore (Tgraph.of_flat_arcs clique ~lifetime:600 labels)))
    [
      ( "listing, positive",
        "Tgraph.of_flat_arcs: labels must be positive",
        Array.init m (fun e -> if e < 5 then 7 else -5) );
      ( "listing, beyond lifetime",
        "Tgraph.of_flat_arcs: label beyond the lifetime",
        Array.init m (fun e -> if e = 3 then 601 else if e = 9 then 0 else 1) );
      ( "listing, min_int",
        "Tgraph.of_flat_arcs: labels must be positive",
        Array.make m min_int );
      ( "listing, max_int",
        "Tgraph.of_flat_arcs: label beyond the lifetime",
        Array.make m max_int );
    ];
  Alcotest.check_raises "no list, every label bad"
    (Invalid_argument "Tgraph.of_flat_arcs: labels must be positive")
    (fun () ->
      ignore (Tgraph.of_flat_arcs clique ~lifetime:100 (Array.make m 0)));
  (* Past the cell limit, where the labels become label sets, the same
     messages name the same first offender. *)
  List.iter
    (fun (what, message, labels) ->
      Alcotest.check_raises what (Invalid_argument message) (fun () ->
          ignore (Tgraph.of_flat_arcs clique ~lifetime:65536 labels)))
    [
      ( "lifetime 65536, positive",
        "Tgraph.of_flat_arcs: labels must be positive",
        Array.init m (fun e -> if e = 4 then 0 else if e = 9 then 65537 else 65536) );
      ( "lifetime 65536, beyond lifetime",
        "Tgraph.of_flat_arcs: label beyond the lifetime",
        Array.init m (fun e -> if e = 3 then 65537 else if e = 9 then 0 else 1) );
      ( "lifetime 65536, min_int",
        "Tgraph.of_flat_arcs: labels must be positive",
        Array.make m min_int );
      ( "lifetime 65536, max_int",
        "Tgraph.of_flat_arcs: label beyond the lifetime",
        Array.make m max_int );
    ];
  Alcotest.check_raises "lifetime 65536, length"
    (Invalid_argument "Tgraph.of_flat_arcs: one label per edge required")
    (fun () -> ignore (Tgraph.of_flat_arcs g ~lifetime:65536 [| 1 |]))

(* The words of [m] two-byte cells: [2m] bytes and the padding byte
   take [2m / 8 + 1] words, plus the header. *)
let cell_words m = float_of_int ((2 * m / 8) + 2)

(* What a single-label network allocates, on both sides of the list
   rule (lifetime 256: no list; 1024: a first-band list).  Construction
   allocates the label cells and no arc array and no [lifetime + 2]
   offsets: below the rule the cells and a constant, above it the
   cells, the list and a bounded growth slack.  The first extend
   allocates its band's arcs, its [first + 2] offsets and its cursor
   (and, without a list, the whole stream's offsets); the first band
   pass past the first band counts the whole stream's offsets, once;
   [uniform_single] allocates the cells, the list its fill makes, and
   a constant.  Nothing grows per edge or per placed arc beyond the
   cells: each leftover is the same constant at two sizes. *)
let of_flat_arcs_allocates_per_band () =
  let first = 64 in
  let overheads ~lifetime n =
    let listed = Implicit.Stream.list_bound ~lifetime > 0 in
    let what fmt =
      Printf.ksprintf (Printf.sprintf "lifetime %d, n = %d: %s" lifetime n) fmt
    in
    let g = Sgraph.Gen.clique Directed n in
    let m = Graph.m g in
    let labels = Array.init m (fun e -> 1 + (e * 7 mod lifetime)) in
    let at_most b = Array.fold_left (fun acc l -> if l <= b then acc + 1 else acc) 0 labels in
    let in_first = at_most first in
    let net, build =
      allocated_words (fun () -> Tgraph.of_flat_arcs g ~lifetime labels)
    in
    let cells = cell_words m in
    let list = if listed then float_of_int (in_first + 1) else 0. in
    check_bool
      (what "construction %.0f words, cells %.0f, list of %d, m = %d" build
         cells in_first m)
      true
      (if listed then
         build >= cells +. list
         && build <= cells +. list +. float_of_int (in_first / 8) +. 64.
       else build >= cells && build <= cells +. 64.);
    check_int (what "nothing placed") 0
      (Array.length (Tgraph.stream_prefix net).arcs);
    (* One band pass: its words against the arrays it must allocate. *)
    let band ~whole =
      let past = Tgraph.stream_prefix_bound net in
      let extended, words =
        allocated_words (fun () -> Tgraph.stream_extend net ~past)
      in
      let v = Tgraph.stream_prefix net in
      let hi = v.bound in
      check_bool (what "band to %d published" hi) true extended;
      check_int (what "the band holds the arcs labelled <= %d" hi) (at_most hi)
        (Array.length v.arcs);
      (* Arcs, [hi + 2] offsets and [hi + 1] cursor words, each with a
         header, and the whole stream's offsets if this pass counts
         them. *)
      let arrays =
        float_of_int
          ((Array.length v.arcs + 1) + (hi + 3) + (hi + 2)
          + if whole then lifetime + 3 else 0)
      in
      check_bool
        (what "band to %d: %.0f words, arrays %.0f" hi words arrays)
        true
        (words >= arrays && words <= arrays +. 64.);
      words -. arrays
    in
    let first_extra = band ~whole:(not listed) in
    check_int (what "first band") first (Tgraph.stream_prefix_bound net);
    let second_extra = band ~whole:listed in
    let third_extra = band ~whole:false in
    let rng = Rng.create n in
    let cut = Implicit.Stream.list_bound ~lifetime in
    let fill_words =
      let copy = Rng.copy rng and into = Prng.Cells.create m in
      snd
        (allocated_words (fun () ->
             Rng.fill_int copy ~base:1 lifetime ~cut into))
    in
    let _, drawn =
      allocated_words (fun () -> Assignment.uniform_single rng g ~a:lifetime)
    in
    let labels_and_list = cells +. fill_words in
    check_bool
      (what "uniform_single %.0f words, cells + list %.0f" drawn
         labels_and_list)
      true
      (drawn >= labels_and_list && drawn <= labels_and_list +. 64.);
    ( (if listed then 0. else build -. cells),
      first_extra,
      second_extra,
      third_extra,
      drawn -. labels_and_list )
  in
  List.iter
    (fun lifetime ->
      let b64, f64, s64, t64, u64 = overheads ~lifetime 64
      and b128, f128, s128, t128, u128 = overheads ~lifetime 128 in
      let same what x y =
        check_bool
          (Printf.sprintf "lifetime %d: %s overhead %.0f = %.0f" lifetime what
             x y)
          true (x = y)
      in
      same "construction" b64 b128;
      same "first extend" f64 f128;
      same "second extend" s64 s128;
      same "third extend" t64 t128;
      same "uniform_single" u64 u128)
    [ 256; 1024 ]

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
(* Stored streams: a single-label network's lazy prefix against the
   eager stream [Tgraph.create] builds from the same labels *)

(* Random CSR graphs of either kind, and the arithmetic shapes; labels
   are capped below the lifetime in some cases, so later label groups
   (and whole bands) can be empty.  Lifetimes fall on both sides of the
   first-band list rule ([Implicit.Stream.list_bound]): 1-63, 64 and
   65-300 take no list, 512-2000 take one, and a cap below 70 there
   puts most edges in the first band, far more than its list expects. *)
let gen_stored =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* seed = int_range 0 1_000_000 in
    let* a =
      oneof [ int_range 1 63; return 64; int_range 65 300; int_range 512 2000 ]
    in
    let* shape = int_range 0 5 in
    let* cap = oneof [ return max_int; int_range 1 70 ] in
    return (n, seed, a, shape, cap))

let print_stored (n, seed, a, shape, cap) =
  Printf.sprintf "(n=%d, seed=%d, a=%d, shape=%d, cap=%d)" n seed a shape cap

let stored_graph ~n ~seed = function
  | 0 -> Graph.create Directed ~n (random_edge_list ~n ~seed ~directed:true)
  | 1 -> Graph.create Undirected ~n (random_edge_list ~n ~seed ~directed:false)
  | 2 -> Sgraph.Gen.clique Directed n
  | 3 -> Sgraph.Gen.clique Undirected n
  | 4 -> Sgraph.Gen.star n
  | _ -> Sgraph.Gen.grid 2 ((n + 1) / 2)

let stored_labels (n, seed, a, shape, cap) =
  let g = stored_graph ~n ~seed shape in
  let rng = Rng.create (seed + 1) in
  (g, Array.init (Graph.m g) (fun _ -> 1 + Rng.int rng (Stdlib.min a cap)))

(* Fresh stored instances (each prefix starts empty) from every
   constructor that can make the case's labels, and the eager stream of
   their label-set twin.  Uncapped labels are the draws of a
   [1 + Rng.int] loop, so [of_uniform_draws] on the same generator
   draws them too; capped ones only [of_flat_arcs] can take. *)
let stored_builds ((_, seed, a, _, cap) as params) =
  let g, labels = stored_labels params in
  let eager = Tgraph.create g ~lifetime:a (Array.map Label.singleton labels) in
  let flat () = Tgraph.of_flat_arcs g ~lifetime:a labels in
  let drawn () = Tgraph.of_uniform_draws (Rng.create (seed + 1)) g ~lifetime:a in
  ((if cap >= a then [ flat; drawn ] else [ flat ]), eager)

let is_prefix_of (full : Implicit.Stream.view) (v : Implicit.Stream.view) =
  let b = v.bound in
  b >= 0 && b <= full.bound
  && v.complete = (b = full.bound)
  && v.off = Array.sub full.off 0 (b + 2)
  && v.arcs = Array.sub full.arcs 0 full.off.(b + 1)

(* Every view [extend] publishes, from the empty one to the complete
   one, is a byte prefix of the eager stream. *)
let views_are_prefixes full net =
  let rec walk () =
    let v = Tgraph.stream_prefix net in
    is_prefix_of full v
    && (v.complete
       || (Tgraph.stream_extend net ~past:v.bound
          && Tgraph.stream_prefix_bound net > v.bound
          && walk ()))
  in
  walk () && not (Tgraph.stream_extend net ~past:(Tgraph.lifetime net))

let stored_views_are_prefixes =
  qcase ~count:300 ~print:print_stored "extend publishes eager prefixes"
    gen_stored (fun params ->
      let builds, eager = stored_builds params in
      let full = Tgraph.stream eager in
      List.for_all (fun build -> views_are_prefixes full (build ())) builds)

(* The whole-stream readers, each on a fresh instance advanced by
   [steps] extends first: [time_edge_count] answers without placing
   anything, and [stream], [stream_extend_all] and [iter_time_edges]
   finish the stream from any bound. *)
let whole_stream_readers_agree build eager steps =
  let advanced () =
    let net = build () in
    for _ = 1 to steps do
      let past = Tgraph.stream_prefix_bound net in
      ignore (Tgraph.stream_extend net ~past)
    done;
    net
  in
  let counted = advanced () in
  let before = Tgraph.stream_prefix counted in
  Tgraph.time_edge_count counted = Tgraph.time_edge_count eager
  && Tgraph.stream_prefix counted == before
  && Tgraph.stream (advanced ()) = Tgraph.stream eager
  && Tgraph.stream_extend_all (advanced ()) = Tgraph.stream eager
  && actual_stream (advanced ()) = actual_stream eager
  &&
  let net = advanced () in
  ignore (Tgraph.stream net);
  List.for_all
    (fun i -> Tgraph.time_edge net i = Tgraph.time_edge eager i)
    (List.init (Tgraph.time_edge_count eager) Fun.id)

let stored_whole_stream_readers =
  qcase ~count:300
    ~print:(fun (p, steps) ->
      Printf.sprintf "%s, steps=%d" (print_stored p) steps)
    "whole-stream readers = eager"
    QCheck2.Gen.(pair gen_stored (int_range 0 4))
    (fun (params, steps) ->
      let builds, eager = stored_builds params in
      List.for_all
        (fun build -> whole_stream_readers_agree build eager steps)
        builds)

(* Four domains race to complete one stream, one of them in one call,
   the others step by step: each sees only eager prefixes, and all end
   on the same complete view. *)
let race ~full ~view ~extend ~complete =
  let step_through () =
    let ok = ref true in
    while not (view ()).Implicit.Stream.complete do
      let v = view () in
      ok := !ok && is_prefix_of full v;
      ignore (extend ~past:v.bound)
    done;
    (!ok, view ())
  in
  let racers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            if d = 0 then (true, complete ()) else step_through ()))
  in
  let results = List.map Domain.join racers in
  List.for_all (fun (ok, v) -> ok && v = full) results && view () = full

(* Labels in two-byte cells, the layout a stored stream reads. *)
let cells_of labels =
  let c = Prng.Cells.create (Array.length labels) in
  Array.iteri (fun e l -> Prng.Cells.unsafe_set c (2 * e) l) labels;
  c

(* The stored stream of a case, built directly, with the first-band
   list its constructors make when the lifetime takes one. *)
let stored_stream params =
  let (_, _, a, _, _) = params in
  let g, label = stored_labels params in
  let cut = Implicit.Stream.list_bound ~lifetime:a in
  let first =
    if cut = 0 then None
    else
      let ids = List.filter (fun e -> label.(e) <= cut) (List.init (Array.length label) Fun.id) in
      Some (Array.of_list ids, List.length ids)
  in
  Implicit.Stream.stored g ~label:(cells_of label) ~first ~lifetime:a

(* Through [Tgraph], from each constructor; and on the stream itself,
   where the racers must count the whole stream's offsets once. *)
let stored_racing_extends =
  qcase ~count:40 ~print:print_stored "racing extends publish one view"
    gen_stored (fun params ->
      let builds, eager = stored_builds params in
      let full = Tgraph.stream eager in
      List.for_all
        (fun build ->
          let net = build () in
          race ~full
            ~view:(fun () -> Tgraph.stream_prefix net)
            ~extend:(Tgraph.stream_extend net)
            ~complete:(fun () -> Tgraph.stream net))
        builds
      &&
      let st = stored_stream params in
      race ~full
        ~view:(fun () -> Implicit.Stream.view st)
        ~extend:(Implicit.Stream.extend st)
        ~complete:(fun () -> Implicit.Stream.force_complete st)
      && Implicit.Stream.offset_counts st = 1)

(* Scalar sweep probes on a stored instance equal its eager twin's,
   including the exhaustion rule: a sweep that ends exactly at a band
   edge, with only empty label groups after it, scanned the whole
   stream, as the eager sweep that walks those empty groups finds. *)
let sweep_probes net s =
  Obs.Metrics.reset ();
  Obs.Control.set_enabled true;
  ignore (Foremost.run net s);
  Obs.Control.set_enabled false;
  let c name = Obs.Metrics.count (Obs.Metrics.counter name) in
  (c "kernel.edges_scanned", c "kernel.early_exits")

let stored_probes_match_eager =
  qcase ~count:300 ~print:print_stored "Foremost probes = eager" gen_stored
    (fun params ->
      let builds, eager = stored_builds params in
      List.for_all
        (fun build ->
          let shared = build () in
          List.for_all
            (fun s ->
              let expected = sweep_probes eager s in
              sweep_probes (build ()) s = expected
              && sweep_probes shared s = expected)
            (List.init (Tgraph.n eager) Fun.id))
        builds)

let exhaustion_at_band_edge () =
  (* 0 -63-> 1 -64-> 2, lifetime 100: from 0 the sweep reaches 2 with
     the last arc of label 64, the first band's last label, and nothing
     follows. *)
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2) ] in
  let stored = Tgraph.of_flat_arcs g ~lifetime:100 [| 63; 64 |] in
  let eager =
    Tgraph.create g ~lifetime:100 [| Label.singleton 63; Label.singleton 64 |]
  in
  Alcotest.(check (pair int int)) "eager: whole stream, exhausted" (2, 0)
    (sweep_probes eager 0);
  Alcotest.(check (pair int int)) "stored: same" (2, 0) (sweep_probes stored 0);
  check_int "stopped at the band edge" 64 (Tgraph.stream_prefix_bound stored);
  Obs.Metrics.reset ()

(* On both sides of the cell limit, [uniform_single] makes the draws of
   [uniform_multi ~r:1]: the same labels, stream, Foremost probes and
   diameter.  At 65535 the labels sit in cells and the stream is lazy;
   at 65536 they are singleton label sets and the stream eager. *)
let uniform_single_matches_multi () =
  let g = Sgraph.Gen.clique Directed 24 in
  List.iter
    (fun a ->
      let what fmt = Printf.ksprintf (Printf.sprintf "lifetime %d: %s" a) fmt in
      let single () = Assignment.uniform_single (Rng.create a) g ~a in
      let multi () = Assignment.uniform_multi (Rng.create a) g ~a ~r:1 in
      let s = single () and u = multi () in
      check_int (what "prefix before any sweep")
        (if a <= Prng.Cells.max_value then 0 else a)
        (Tgraph.stream_prefix_bound s);
      List.iter
        (fun e ->
          Alcotest.(check (list int)) (what "labels of edge %d" e)
            (Label.to_list (Tgraph.labels u e))
            (Label.to_list (Tgraph.labels s e)))
        (List.init (Graph.m g) Fun.id);
      List.iter
        (fun src ->
          Alcotest.(check (pair int int))
            (what "Foremost probes from %d" src)
            (sweep_probes (multi ()) src)
            (sweep_probes (single ()) src))
        [ 0; 5; 23 ];
      Alcotest.(check (option int)) (what "diameter")
        (Distance.instance_diameter u)
        (Distance.instance_diameter s);
      check_bool (what "stream") true (Tgraph.stream s = Tgraph.stream u))
    [ 65535; 65536 ];
  (* Past the limit the sets come from [Assignment]: the cell
     constructor itself refuses a lifetime no cell holds. *)
  Alcotest.check_raises "of_uniform_draws at 65536"
    (Invalid_argument "Rng.fill_int: values must fit a cell") (fun () ->
      ignore (Tgraph.of_uniform_draws (Rng.create 1) g ~lifetime:65536));
  Obs.Metrics.reset ()

(* The largest label a cell holds, 65535, comes back whole from every
   reader: the label queries, the stream, a sweep, and a stored stream
   built on its own; one past it, 65536, from label sets. *)
let top_label_round_trips () =
  let g = Graph.create Directed ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  List.iter
    (fun top ->
      let what fmt = Printf.ksprintf (Printf.sprintf "label %d: %s" top) fmt in
      let net = Tgraph.of_flat_arcs g ~lifetime:top [| top; 1; top - 1 |] in
      Alcotest.(check (list int)) (what "labels") [ top ]
        (Label.to_list (Tgraph.labels net 0));
      check_int (what "next after top - 1") top
        (Tgraph.edge_next_label_after net 0 (top - 1));
      check_int (what "none after top") max_int
        (Tgraph.edge_next_label_after net 0 top);
      check_int (what "next in (top - 1, top]") top
        (Tgraph.edge_next_label_in net 0 ~lo:(top - 1) ~hi:top);
      check_bool (what "has top") true (Tgraph.edge_has_label net 0 top);
      let seen = ref [] in
      Tgraph.iter_edge_labels net 0 (fun l -> seen := l :: !seen);
      Alcotest.(check (list int)) (what "iter_edge_labels") [ top ] !seen;
      Alcotest.(check (array int)) (what "Foremost arrivals from 0")
        [| 0; top; top - 1 |]
        (Foremost.arrival_array (Foremost.run net 0));
      Alcotest.(check (list (triple int int int)))
        (what "stream")
        [ (1, 2, 1); (0, 2, top - 1); (0, 1, top) ]
        (actual_stream net);
      Alcotest.(check (triple int int int)) (what "last time edge") (0, 1, top)
        (Tgraph.time_edge net 2))
    [ 65535; 65536 ];
  let st =
    Implicit.Stream.stored g ~label:(cells_of [| 65535; 1; 65534 |])
      ~first:(Some ([| 1 |], 1)) ~lifetime:65535
  in
  let v = Implicit.Stream.force_complete st in
  check_int "stored: complete at 65535" 65535 v.bound;
  check_int "stored: last arc's label" 65535 (Implicit.Stream.label_at v 2);
  check_int "stored: 65535's group" 1 (v.off.(65536) - v.off.(65535))

(* [materialize] rolls a single-roll derived instance straight into
   cells and lists its first band from them: the network [of_flat_arcs]
   builds from the same rolls, on both sides of the list rule and of
   the cell limit.  Each view it publishes is a prefix of the eager
   twin's stream, the whole-stream readers agree, and so do the probes;
   the first extend places the same first band. *)
let materialize_matches_flat () =
  let g = Sgraph.Gen.clique Directed 30 in
  let m = Graph.m g in
  List.iter
    (fun lifetime ->
      let what fmt =
        Printf.ksprintf (Printf.sprintf "lifetime %d: %s" lifetime) fmt
      in
      let derived () = Tgraph.of_derived g ~a:lifetime ~seed:99L ~r:1 in
      let d = Implicit.Labels.make ~seed:99L ~a:lifetime ~r:1 in
      let rolls = Array.init m (fun e -> Implicit.Labels.roll d ~edge:e ~k:0) in
      let eager = Tgraph.create g ~lifetime (Array.map Label.singleton rolls) in
      let flat = Tgraph.of_flat_arcs g ~lifetime rolls in
      let twin () = Tgraph.materialize (derived ()) in
      let net = twin () in
      check_bool (what "dense") false (Tgraph.is_implicit net);
      check_bool (what "labels") true
        (List.for_all
           (fun e ->
             Label.to_list (Tgraph.labels net e) = [ rolls.(e) ]
             && Tgraph.edge_next_label_after net e 0 = rolls.(e))
           (List.init m Fun.id));
      ignore (Tgraph.stream_extend net ~past:0);
      ignore (Tgraph.stream_extend flat ~past:0);
      check_bool (what "first band = of_flat_arcs'") true
        (Tgraph.stream_prefix net = Tgraph.stream_prefix flat);
      check_bool (what "views are eager prefixes") true
        (views_are_prefixes (Tgraph.stream eager) (twin ()));
      check_bool (what "whole-stream readers") true
        (whole_stream_readers_agree twin eager 1);
      List.iter
        (fun s ->
          Alcotest.(check (pair int int))
            (what "Foremost probes from %d" s)
            (sweep_probes eager s) (sweep_probes (twin ()) s))
        [ 0; 17 ])
    [ 100; 600; 65535; 65536 ];
  Obs.Metrics.reset ()

(* The list's edge ids index unchecked cell reads, so the band pass that
   reads the list checks them. *)
let stored_list_ids_checked () =
  let g = Sgraph.Gen.clique Directed 4 in
  let m = Graph.m g in
  List.iter
    (fun bad ->
      let st =
        Implicit.Stream.stored g ~label:(cells_of (Array.make m 1))
          ~first:(Some ([| 0; bad |], 2)) ~lifetime:600
      in
      Alcotest.check_raises
        (Printf.sprintf "listed id %d" bad)
        (Invalid_argument "Implicit.Stream: a listed edge id is out of range")
        (fun () -> ignore (Implicit.Stream.extend st ~past:0)))
    [ m; -1; max_int ]

(* Both constructors on the same drawn labels, and the eager twin; each
   build allocates its own cells ([cell_words m]). *)
let drawn_builds g ~lifetime ~seed =
  let labels =
    let rng = Rng.create seed in
    Array.init (Graph.m g) (fun _ -> 1 + Rng.int rng lifetime)
  in
  let eager = Tgraph.create g ~lifetime (Array.map Label.singleton labels) in
  ( labels,
    [
      ("of_flat_arcs", fun () -> Tgraph.of_flat_arcs g ~lifetime labels);
      ("of_uniform_draws", fun () -> Tgraph.of_uniform_draws (Rng.create seed) g ~lifetime);
    ],
    eager )

(* The list rule's edge.  At lifetime 511 construction lists nothing
   and the first extend counts the whole stream's offsets; at 512
   construction lists the first band and the first extend places it
   from the list alone, counting nothing.  Either way every view is an
   eager prefix and the whole-stream readers agree, from both
   constructors. *)
let list_rule_edge () =
  let g = Sgraph.Gen.clique Directed 40 in
  List.iter
    (fun lifetime ->
      let listed = lifetime >= 512 in
      check_int
        (Printf.sprintf "lifetime %d: list bound" lifetime)
        (if listed then 64 else 0)
        (Implicit.Stream.list_bound ~lifetime);
      let labels, builds, eager = drawn_builds g ~lifetime ~seed:lifetime in
      let in_first =
        Array.fold_left (fun acc l -> if l <= 64 then acc + 1 else acc) 0 labels
      in
      let full = Tgraph.stream eager in
      List.iter
        (fun (name, build) ->
          let what fmt =
            Printf.ksprintf (Printf.sprintf "lifetime %d, %s: %s" lifetime name) fmt
          in
          let net, words = allocated_words build in
          let words = words -. cell_words (Graph.m g) in
          check_bool
            (what "construction %.0f words beyond the labels, %d in the first band"
               words in_first)
            true
            (* Below the rule: the network, and the generator the
               drawing build seeds; above it, a list of the band too. *)
            (if listed then words >= float_of_int (in_first + 1) else words <= 128.);
          let _, first_words =
            allocated_words (fun () -> Tgraph.stream_extend net ~past:0)
          in
          let band = float_of_int ((in_first + 1) + 67 + 66) in
          check_bool
            (what "first extend %.0f words, band arrays %.0f" first_words band)
            true
            (if listed then first_words <= band +. 64.
             else first_words >= band +. float_of_int (lifetime + 3));
          check_bool (what "views are eager prefixes") true
            (views_are_prefixes full net);
          check_bool (what "whole-stream readers") true
            (whole_stream_readers_agree build eager 1))
        builds)
    [ 511; 512 ]

(* Every label above the first band: the list is present and empty, the
   first band is published empty, and every arc comes from later bands. *)
let empty_first_band () =
  let g = Sgraph.Gen.clique Directed 12 in
  let lifetime = 1000 in
  let labels = Array.init (Graph.m g) (fun e -> 65 + (e * 37 mod (lifetime - 64))) in
  let eager = Tgraph.create g ~lifetime (Array.map Label.singleton labels) in
  let build () = Tgraph.of_flat_arcs g ~lifetime labels in
  let net = build () in
  check_bool "first band published" true (Tgraph.stream_extend net ~past:0);
  check_int "at bound 64" 64 (Tgraph.stream_prefix_bound net);
  check_int "with no arcs" 0 (Array.length (Tgraph.stream_prefix net).arcs);
  check_bool "views are eager prefixes" true
    (views_are_prefixes (Tgraph.stream eager) net);
  check_bool "whole-stream readers" true (whole_stream_readers_agree build eager 1);
  List.iter
    (fun s ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "Foremost probes from %d" s)
        (sweep_probes eager s) (sweep_probes (build ()) s))
    (List.init 12 Fun.id);
  Obs.Metrics.reset ()

(* A lifetime of at most 64: the first band is the whole stream, and no
   list is made or taken, so an empty list there cannot stand for it. *)
let short_lifetime_takes_no_list () =
  let g = Sgraph.Gen.clique Directed 12 in
  List.iter
    (fun lifetime ->
      check_int "no list bound" 0 (Implicit.Stream.list_bound ~lifetime);
      let _, builds, eager = drawn_builds g ~lifetime ~seed:7 in
      List.iter
        (fun (name, build) ->
          let net = build () in
          ignore (Tgraph.stream_extend net ~past:0);
          check_bool
            (Printf.sprintf "lifetime %d, %s: the first extend places every arc"
               lifetime name)
            true
            (Tgraph.stream_prefix net = Tgraph.stream eager))
        builds;
      Alcotest.check_raises
        (Printf.sprintf "lifetime %d: an empty list is refused" lifetime)
        (Invalid_argument
           "Implicit.Stream.stored: no first-band list at this lifetime")
        (fun () ->
          ignore
            (Implicit.Stream.stored g
               ~label:(cells_of (Array.make (Graph.m g) 1))
               ~first:(Some ([||], 0)) ~lifetime)))
    [ 1; 40; 64 ]

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
        case "trusted generators" trusted_generators_match_list_path;
        case "iter_edge_ids = iter_edges" iter_edge_ids_matches_iter_edges;
        iter_edge_ids_clique_qc;
      ] );
    ( "kernel.single-label",
      [
        of_flat_arcs_matches_create;
        case "of_flat_arcs validations" of_flat_arcs_validates;
        case "of_flat_arcs allocates per band, not per edge"
          of_flat_arcs_allocates_per_band;
        scalar_queries_match_label_sets;
        case "uniform_single = uniform_multi ~r:1 at the cell limit"
          uniform_single_matches_multi;
        case "label 65535 round-trips" top_label_round_trips;
      ] );
    ( "kernel.stored",
      [
        stored_views_are_prefixes;
        stored_whole_stream_readers;
        stored_racing_extends;
        stored_probes_match_eager;
        case "exhaustion at a band edge" exhaustion_at_band_edge;
        case "no list at 511, a list at 512" list_rule_edge;
        case "a first band with no arcs" empty_first_band;
        case "lifetime <= 64 takes no list" short_lifetime_takes_no_list;
        case "listed edge ids are checked" stored_list_ids_checked;
        case "materialize = of_flat_arcs of its rolls" materialize_matches_flat;
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
