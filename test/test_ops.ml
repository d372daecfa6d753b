(* Tests for Builder, Ops (network algebra) and Spanner (pruning). *)

open Helpers
module Graph = Sgraph.Graph
open Temporal

(* --------------------------------------------------------------- *)
(* Builder *)

let builder_basic () =
  let b = Builder.create Undirected ~n:4 in
  Builder.add_edge b 0 1 [ 3; 1 ];
  Builder.add_edge b 1 2 [ 2 ];
  Builder.add_label b 2 3 5;
  check_int "edges" 3 (Builder.edge_count b);
  check_int "labels" 4 (Builder.label_count b);
  let net = Builder.build b in
  check_int "n" 4 (Tgraph.n net);
  check_int "lifetime defaults to max label" 5 (Tgraph.lifetime net);
  check_int "labels materialised" 4 (Tgraph.label_count net)

let builder_merges_labels () =
  let b = Builder.create Undirected ~n:3 in
  Builder.add_edge b 0 1 [ 1; 2 ];
  Builder.add_edge b 1 0 [ 2; 4 ];
  check_int "one edge" 1 (Builder.edge_count b);
  check_int "union of labels" 3 (Builder.label_count b);
  let net = Builder.build b in
  Alcotest.(check (list int)) "merged set" [ 1; 2; 4 ]
    (Label.to_list (Tgraph.labels net 0))

let builder_directed_keeps_both () =
  let b = Builder.create Directed ~n:3 in
  Builder.add_edge b 0 1 [ 1 ];
  Builder.add_edge b 1 0 [ 2 ];
  check_int "two arcs" 2 (Builder.edge_count b)

let builder_validations () =
  let b = Builder.create Undirected ~n:3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Builder: self-loop")
    (fun () -> Builder.add_edge b 1 1 [ 1 ]);
  Alcotest.check_raises "range"
    (Invalid_argument "Builder: endpoint out of range") (fun () ->
      Builder.add_edge b 0 7 [ 1 ]);
  Alcotest.check_raises "bad label"
    (Invalid_argument "Builder: labels must be positive") (fun () ->
      Builder.add_edge b 0 1 [ 0 ])

let builder_explicit_lifetime () =
  let b = Builder.create Undirected ~n:2 in
  Builder.add_edge b 0 1 [ 3 ];
  check_int "explicit" 9 (Tgraph.lifetime (Builder.build ~lifetime:9 b));
  Alcotest.check_raises "too small"
    (Invalid_argument "Tgraph.create: label beyond the lifetime") (fun () ->
      ignore (Builder.build ~lifetime:2 b))

let builder_reusable () =
  let b = Builder.create Undirected ~n:2 in
  Builder.add_edge b 0 1 [ 1 ];
  let first = Builder.build b in
  Builder.add_label b 0 1 2;
  let second = Builder.build b in
  check_int "first unchanged" 1 (Tgraph.label_count first);
  check_int "second grew" 2 (Tgraph.label_count second)

(* --------------------------------------------------------------- *)
(* Ops *)

let ops_shift () =
  let net = fixture () in
  let shifted = Ops.shift net 10 in
  check_int "lifetime grew" 18 (Tgraph.lifetime shifted);
  check_int_option "distances shift by exactly d" (Some 11)
    (Distance.distance shifted 0 4);
  Alcotest.check_raises "negative shift below 1"
    (Invalid_argument "Ops.shift: label would drop below 1") (fun () ->
      ignore (Ops.shift net (-1)))

let ops_shift_down_ok () =
  let net = Ops.shift (fixture ()) 5 in
  let back = Ops.shift net (-5) in
  check_int_option "round trip" (Some 1) (Distance.distance back 0 4)

let ops_scale_distances =
  qcase ~count:80 "scaling labels scales temporal distances"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let scaled = Ops.scale net 3 in
      let n = Tgraph.n net in
      let ok = ref true in
      for s = 0 to n - 1 do
        let original = Foremost.run net s in
        let after = Foremost.run scaled s in
        for v = 0 to n - 1 do
          let expected =
            Option.map (fun d -> 3 * d) (Foremost.distance original v)
          in
          if Foremost.distance after v <> expected then ok := false
        done
      done;
      !ok)

let ops_scale_invalid () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Ops.scale: k must be >= 1")
    (fun () -> ignore (Ops.scale (fixture ()) 0))

let ops_reverse_time_duality =
  qcase ~count:80
    "foremost in reversed time = latest presence in the original"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let reversed = Ops.reverse_time net in
      let a = Tgraph.lifetime net in
      let n = Tgraph.n net in
      let ok = ref true in
      for t = 0 to n - 1 do
        (* Earliest arrival v <- t in reversed time at label l corresponds
           to a journey t <- v in the original using labels a+1-l...; the
           latest presence L(v) towards t equals a - (reversed arrival). *)
        let rev_res = Foremost.run reversed t in
        let latest = Reverse_foremost.run net t in
        for v = 0 to n - 1 do
          if v <> t then begin
            let expected =
              match Foremost.distance rev_res v with
              | Some arrival -> Some (a - arrival)
              | None -> None
            in
            if Reverse_foremost.latest_presence latest v <> expected then
              ok := false
          end
        done
      done;
      !ok)

let ops_reverse_time_involutive () =
  let net = fixture () in
  let twice = Ops.reverse_time (Ops.reverse_time net) in
  Alcotest.(check string) "involution (same serialisation)"
    (Serial.to_string net) (Serial.to_string twice)

let ops_union () =
  let g = Sgraph.Gen.path 3 in
  let early = Assignment.constant g ~a:5 (Label.singleton 1) in
  let late = Assignment.constant g ~a:9 (Label.singleton 7) in
  let both = Ops.union early late in
  check_int "lifetime is the max" 9 (Tgraph.lifetime both);
  Alcotest.(check (list int)) "labels merged" [ 1; 7 ]
    (Label.to_list (Tgraph.labels both 0))

let ops_union_mismatch () =
  let a = Assignment.constant (Sgraph.Gen.path 3) ~a:3 (Label.singleton 1) in
  let b = Assignment.constant (Sgraph.Gen.cycle 3) ~a:3 (Label.singleton 1) in
  Alcotest.check_raises "different graphs"
    (Invalid_argument "Ops.union: different underlying graphs") (fun () ->
      ignore (Ops.union a b))

let ops_induced () =
  let net = fixture () in
  let sub, mapping = Ops.induced net [ 0; 1; 4 ] in
  check_int "three vertices" 3 (Tgraph.n sub);
  Alcotest.(check (array int)) "mapping" [| 0; 1; 4 |] mapping;
  (* Edges among {0,1,4}: {0,1} and {0,4}. *)
  check_int "two edges" 2 (Graph.m (Tgraph.graph sub));
  check_int "their labels" 3 (Tgraph.label_count sub)

let ops_induced_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Ops.induced: empty vertex list")
    (fun () -> ignore (Ops.induced (fixture ()) []));
  Alcotest.check_raises "range"
    (Invalid_argument "Ops.induced: vertex out of range") (fun () ->
      ignore (Ops.induced (fixture ()) [ 0; 99 ]))

let ops_induced_preserves_journeys =
  qcase ~count:60 "journeys in the induced network exist in the original"
    ~print:print_params gen_params
    (fun params ->
      let net = random_tnet params in
      let n = Tgraph.n net in
      let keep = List.init ((n / 2) + 1) Fun.id in
      let sub, mapping = Ops.induced net keep in
      let ok = ref true in
      for s = 0 to Tgraph.n sub - 1 do
        let res = Foremost.run sub s in
        for v = 0 to Tgraph.n sub - 1 do
          match Foremost.distance res v with
          | None -> ()  (* the restriction can only lose journeys *)
          | Some d ->
            (* The same journey exists in the full network, so the true
               distance is at most d. *)
            (match Distance.distance net mapping.(s) mapping.(v) with
            | Some full -> if full > d then ok := false
            | None -> ok := false)
        done
      done;
      !ok)

(* --------------------------------------------------------------- *)
(* Spanner *)

let spanner_fixture () =
  let net = fixture () in
  let result = Spanner.prune net in
  check_bool "pruned still reaches" true (Reachability.treach result.pruned);
  check_bool "minimal" true (Spanner.is_minimal result.pruned);
  check_int "bookkeeping" (Tgraph.label_count net)
    (result.kept + result.removed)

let spanner_all_times_star () =
  let g = Sgraph.Gen.star 8 in
  let net = Assignment.all_times g ~a:8 in
  let result = Spanner.prune net in
  check_bool "treach preserved" true (Reachability.treach result.pruned);
  (* Leaf-to-leaf journeys both ways force >= 2 labels on all edges but
     possibly one (whose single label the others straddle). *)
  check_bool "at least 2(n-1)-1 labels survive" true (result.kept >= 13);
  check_bool "massive redundancy removed" true (result.removed > 30)

let spanner_already_minimal () =
  let net = Opt.star_two_labels (Sgraph.Gen.star 6) in
  check_bool "star {1,2} scheme is minimal" true (Spanner.is_minimal net);
  let result = Spanner.prune net in
  check_int "nothing removed" 0 result.removed

let spanner_rejects_broken_input () =
  let g = Graph.create Undirected ~n:3 [ (0, 1); (1, 2) ] in
  let net =
    Tgraph.create g ~lifetime:3 [| Label.singleton 2; Label.singleton 1 |]
  in
  Alcotest.check_raises "not reachability-preserving"
    (Invalid_argument "Spanner.prune: input must preserve reachability")
    (fun () -> ignore (Spanner.prune net))

let spanner_clique_single_is_minimal () =
  check_bool "1 label per clique edge is minimal" true
    (Spanner.is_minimal
       (Assignment.constant (Sgraph.Gen.clique Undirected 5) ~a:1
          (Label.singleton 1)))

let spanner_outputs_minimal =
  qcase ~count:25 "prune outputs are inclusion-minimal" ~print:print_params
    gen_small_nets
    (fun params ->
      let net = random_tnet params in
      if not (Reachability.treach net) then true
      else begin
        let result = Spanner.prune net in
        Reachability.treach result.pruned && Spanner.is_minimal result.pruned
        && result.kept <= Tgraph.label_count net
      end)

let spanner_orders_agree_on_validity () =
  let g = Sgraph.Gen.cycle 6 in
  let net = Assignment.all_times g ~a:6 in
  let late = Spanner.prune ~order:`Latest_first net in
  let early = Spanner.prune ~order:`Earliest_first net in
  check_bool "both minimal" true
    (Spanner.is_minimal late.pruned && Spanner.is_minimal early.pruned)

(* --------------------------------------------------------------- *)
(* Design *)

let design_metadata () =
  let g = Sgraph.Gen.grid 3 3 in
  Alcotest.(check string) "backbone name" "backbone"
    (Design.spec_name Backbone_only);
  Alcotest.(check string) "hybrid name" "hybrid r=2"
    (Design.spec_name (Hybrid 2));
  check_int "backbone budget" 16 (Design.label_budget g Backbone_only);
  check_int "random budget" (3 * 12) (Design.label_budget g (Random_only 3));
  check_int "hybrid budget" (16 + 12) (Design.label_budget g (Hybrid 1));
  check_bool "backbone guarantees" true
    (Design.guarantees_reachability Backbone_only);
  check_bool "hybrid guarantees" true (Design.guarantees_reachability (Hybrid 1));
  check_bool "random does not" false
    (Design.guarantees_reachability (Random_only 9))

let design_backbone_certain () =
  let g = Sgraph.Gen.grid 4 4 in
  let net = Design.realise (rng ()) g ~a:16 Backbone_only in
  check_bool "treach" true (Reachability.treach net);
  match Distance.instance_diameter net with
  | Some d -> check_bool "within the 2h horizon" true (d <= 16)
  | None -> Alcotest.fail "backbone must connect"

let design_hybrid_always_certain =
  qcase ~count:40 "hybrid designs always preserve reachability"
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 5_000)
    (fun seed ->
      let g = Sgraph.Gen.hypercube 4 in
      let net =
        Design.realise (Prng.Rng.create seed) g ~a:16 (Hybrid ((seed mod 3) + 1))
      in
      Reachability.treach net)

let design_hybrid_not_slower () =
  (* The hybrid's instance diameter can never exceed the backbone's on
     the same tree: it has strictly more availability. *)
  let g = Sgraph.Gen.hypercube 4 in
  let backbone = Design.realise (rng ()) g ~a:8 Backbone_only in
  let hybrid = Design.realise (rng ()) g ~a:8 (Hybrid 4) in
  match (Distance.instance_diameter backbone, Distance.instance_diameter hybrid)
  with
  | Some b, Some h -> check_bool "hybrid <= backbone" true (h <= b)
  | _ -> Alcotest.fail "both connect"

let design_validations () =
  Alcotest.check_raises "directed"
    (Invalid_argument "Design.realise: directed graph") (fun () ->
      ignore
        (Design.realise (rng ()) (Sgraph.Gen.clique Directed 4) ~a:8
           Backbone_only));
  let disconnected = Graph.create Undirected ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Design.realise: disconnected graph") (fun () ->
      ignore (Design.realise (rng ()) disconnected ~a:8 Backbone_only));
  Alcotest.check_raises "lifetime too short"
    (Invalid_argument "Design.realise: lifetime below the backbone horizon")
    (fun () ->
      ignore (Design.realise (rng ()) (Sgraph.Gen.path 8) ~a:3 Backbone_only))

let suites =
  [
    ( "temporal.builder",
      [
        case "basic" builder_basic;
        case "merges labels" builder_merges_labels;
        case "directed keeps both arcs" builder_directed_keeps_both;
        case "validations" builder_validations;
        case "explicit lifetime" builder_explicit_lifetime;
        case "reusable" builder_reusable;
      ] );
    ( "temporal.ops",
      [
        case "shift" ops_shift;
        case "shift down" ops_shift_down_ok;
        ops_scale_distances;
        case "scale invalid" ops_scale_invalid;
        ops_reverse_time_duality;
        case "reverse involutive" ops_reverse_time_involutive;
        case "union" ops_union;
        case "union mismatch" ops_union_mismatch;
        case "induced" ops_induced;
        case "induced invalid" ops_induced_invalid;
        ops_induced_preserves_journeys;
      ] );
    ( "temporal.spanner",
      [
        case "fixture" spanner_fixture;
        case "all-times star" spanner_all_times_star;
        case "already minimal" spanner_already_minimal;
        case "rejects broken input" spanner_rejects_broken_input;
        case "clique single minimal" spanner_clique_single_is_minimal;
        spanner_outputs_minimal;
        case "orders agree" spanner_orders_agree_on_validity;
      ] );
    ( "temporal.design",
      [
        case "metadata" design_metadata;
        case "backbone certain" design_backbone_certain;
        design_hybrid_always_certain;
        case "hybrid not slower" design_hybrid_not_slower;
        case "validations" design_validations;
      ] );
  ]
