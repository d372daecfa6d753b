(* Tests for the Random Phone-Call baseline (paper section 1.1). *)

open Helpers
module Gen = Sgraph.Gen
module Rumor = Phonecall.Rumor

let push_completes_on_clique () =
  let g = Gen.clique Undirected 32 in
  let result = Rumor.spread (rng ()) g Push ~source:0 in
  (match result.rounds with
  | None -> Alcotest.fail "push must finish on a clique"
  | Some rounds ->
    check_bool "at least log2 n rounds" true (rounds >= 5);
    check_bool "not absurdly many" true (rounds < 64));
  check_bool "transmissions at least n-1" true (result.transmissions >= 31)

let pull_completes_on_clique () =
  let result = Rumor.spread (rng ()) (Gen.clique Undirected 32) Pull ~source:3 in
  check_bool "pull finishes" true (result.rounds <> None)

let push_pull_completes () =
  let result =
    Rumor.spread (rng ()) (Gen.clique Undirected 64) Push_pull ~source:1
  in
  check_bool "finishes" true (result.rounds <> None)

let history_monotone () =
  let result = Rumor.spread (rng ()) (Gen.clique Undirected 24) Push ~source:0 in
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
      check_bool "non-decreasing" true (a <= b);
      check_monotone rest
    | _ -> ()
  in
  check_monotone result.informed_per_round;
  check_int "starts at 1" 1 (List.hd result.informed_per_round);
  check_int "ends with everyone" 24
    (List.nth result.informed_per_round
       (List.length result.informed_per_round - 1))

let single_vertex_trivial () =
  let g = Sgraph.Graph.create Undirected ~n:1 [] in
  let result = Rumor.spread (rng ()) g Push ~source:0 in
  check_int_option "zero rounds" (Some 0) result.rounds;
  check_int "no messages" 0 result.transmissions

let max_rounds_cap () =
  (* A path spreads slowly; 1 round cannot finish n = 16. *)
  let result =
    Rumor.spread ~max_rounds:1 (rng ()) (Gen.path 16) Push ~source:0
  in
  check_bool "capped" true (result.rounds = None)

let bad_source () =
  Alcotest.check_raises "source range"
    (Invalid_argument "Rumor.spread: bad source") (fun () ->
      ignore (Rumor.spread (rng ()) (Gen.path 4) Push ~source:9))

let isolated_vertex_rejected () =
  let g = Sgraph.Graph.create Undirected ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "nobody to call"
    (Invalid_argument "Rumor.spread: vertex without neighbours") (fun () ->
      ignore (Rumor.spread (rng ()) g Push ~source:0))

let mean_rounds_sane () =
  let mean, sd = Rumor.mean_rounds (rng ()) (Gen.clique Undirected 32) Push ~trials:10 in
  check_bool "mean in a plausible band" true (mean > 4. && mean < 40.);
  check_bool "sd finite" true (Float.is_finite sd)

let push_pull_not_slower_much () =
  (* Statistically, push-pull <= push on the clique; allow slack of 2. *)
  let g = Gen.clique Undirected 64 in
  let push, _ = Rumor.mean_rounds (Prng.Rng.create 3) g Push ~trials:20 in
  let both, _ = Rumor.mean_rounds (Prng.Rng.create 3) g Push_pull ~trials:20 in
  check_bool
    (Printf.sprintf "push-pull %.1f <= push %.1f + 2" both push)
    true (both <= push +. 2.)

let suites =
  [
    ( "phonecall.rumor",
      [
        case "push completes" push_completes_on_clique;
        case "pull completes" pull_completes_on_clique;
        case "push-pull completes" push_pull_completes;
        case "history monotone" history_monotone;
        case "single vertex" single_vertex_trivial;
        case "max rounds cap" max_rounds_cap;
        case "bad source" bad_source;
        case "isolated vertex rejected" isolated_vertex_rejected;
        case "mean_rounds" mean_rounds_sane;
        case "push-pull competitive" push_pull_not_slower_much;
      ] );
  ]
