(* Tests of the benchmark itself: its statistics, its inputs, its
   failure count and its result format. *)

open Perfbench

let check_hi what ~value ?percentile h =
  match h with
  | None -> Alcotest.failf "%s: no hi percentile" what
  | Some (h : Pstats.hi) ->
    Alcotest.(check (float 0.)) (what ^ ": value") value h.value;
    Option.iter
      (fun p -> Alcotest.(check (float 1e-9)) (what ^ ": percentile") p h.percentile)
      percentile

let hi_rule () =
  let pop = Array.init 20 (fun i -> float_of_int (20 - i)) in
  check_hi "20 samples: rank 10" ~value:10. ~percentile:50. (Pstats.hi_percentile pop);
  (match Pstats.hi_percentile pop with
  | Some h ->
    Alcotest.(check int) "samples" 20 h.Pstats.samples;
    Alcotest.(check int) "beyond" 10 h.Pstats.beyond
  | None -> ());
  check_hi "11 samples: the minimum" ~value:1. ~percentile:(100. /. 11.)
    (Pstats.hi_percentile [| 5.; 1.; 9.; 3.; 7.; 2.; 8.; 4.; 6.; 10.; 11. |]);
  Alcotest.(check bool)
    "10 samples have none" true
    (Pstats.hi_percentile (Array.make 10 1.) = None);
  check_hi "1000 samples: p99" ~value:990. ~percentile:99.
    (Pstats.hi_percentile (Array.init 1000 (fun i -> float_of_int (i + 1))));
  (* Ties rank; they do not collapse. *)
  check_hi "ties" ~value:2.
    (Pstats.hi_percentile (Array.append (Array.make 15 2.) (Array.make 10 9.)))

let segmented () =
  (* Two connections, 250 and 120 operations: the segments of 100 are
     [1..100], [101..200] and [1000..1099], their p90s 90, 190 and 1089,
     and the median segment 190. *)
  let a = Array.init 250 (fun i -> float_of_int (i + 1)) in
  let b = Array.init 120 (fun i -> float_of_int (1000 + i)) in
  let h = Pstats.segmented_hi [ a; b ] in
  check_hi "median segment p90" ~value:190. ~percentile:90. h;
  Alcotest.(check int) "samples" 300 (Option.get h).Pstats.samples;
  Alcotest.(check bool)
    "no whole segment" true
    (Pstats.segmented_hi [ Array.make 60 1.; Array.make 99 1. ] = None);
  (* Trials: each process is a segment.  20 samples each: rank 10, so
     10, 110 and 210; the median process reads 110. *)
  let proc k = Array.init 20 (fun i -> float_of_int ((100 * k) + i + 1)) in
  check_hi "per process" ~value:110. ~percentile:50. (Pstats.median_hi [ proc 2; proc 0; proc 1 ])

let rates () =
  (* Loop one completes every 0.1 s but stalls once for 1 s; loop two
     every 0.5 s.  Median cycles 0.1 and 0.5: 10 + 2 per second. *)
  Alcotest.(check (float 1e-9))
    "median cycles" 12.
    (Pstats.closed_loop_rate [ [| 0.; 0.1; 0.2; 1.2; 1.3; 1.4 |]; [| 0.; 0.5; 1.0 |] ]);
  Alcotest.(check (float 1e-9)) "even count" 2.5 (Pstats.median [| 4.; 1.; 2.; 3. |])

let workload name =
  match Inputs.find name with Some w -> w | None -> Alcotest.failf "no workload %s" name

let stream w ~seed ~conn =
  let hot = Inputs.hot_set w ~seed in
  List.init 500 (fun i -> Inputs.query w ~seed ~hot ~conn i)

let same_seed_same_inputs () =
  let hot = workload "serve-hot" in
  let manifest seed = Inputs.manifest hot ~seed in
  Alcotest.(check (list string)) "manifest" (manifest 7) (manifest 7);
  Alcotest.(check bool) "another seed, another instance" false (manifest 7 = manifest 8);
  Alcotest.(check int)
    "instance seeds are distinct" 8
    (List.length (List.sort_uniq compare (List.init 8 (fun i -> Inputs.instance_seed ~seed:7 i))));
  Alcotest.(check int)
    "trial seed"
    (Inputs.trial_seed ~seed:3 ~slot:1 5)
    (Inputs.trial_seed ~seed:3 ~slot:1 5);
  let s ~seed ~conn = stream hot ~seed ~conn in
  Alcotest.(check bool) "query stream" true (s ~seed:7 ~conn:0 = s ~seed:7 ~conn:0);
  Alcotest.(check bool) "connections differ" false (s ~seed:7 ~conn:0 = s ~seed:7 ~conn:1);
  Alcotest.(check bool) "seeds differ" false (s ~seed:7 ~conn:0 = s ~seed:8 ~conn:0);
  let set = Inputs.hot_set hot ~seed:7 in
  Alcotest.(check int) "hot set size" hot.Inputs.hot_sources (Array.length set);
  Alcotest.(check int)
    "hot set distinct" (Array.length set)
    (List.length (List.sort_uniq compare (Array.to_list set)));
  Alcotest.(check bool) "hot set reproducible" true (set = Inputs.hot_set hot ~seed:7);
  List.iter
    (fun (q : Inputs.query) ->
      let inside x bound = x >= 0 && x < bound in
      if not (inside q.inst hot.Inputs.instances && Array.mem q.source set
              && inside q.target hot.Inputs.n)
      then Alcotest.fail "query outside the instance, the hot set or the vertices")
    (s ~seed:7 ~conn:1)

let failures_counted () =
  let t = Tally.create () in
  let add expected reply = Tally.add t (Tally.classify ~expected reply) in
  let error code = Ok (Serve.Proto.Error (code, "x")) in
  add (Some 3) (Ok (Serve.Proto.Ok_value (Some 3)));
  add None (Ok (Serve.Proto.Ok_value None));
  Alcotest.(check int) "correct replies are not failures" 0 t.Tally.failed;
  Alcotest.(check bool)
    "shed" true
    (Tally.classify ~expected:None (error Serve.Proto.Resource_exhausted) = Tally.Shed);
  add (Some 3) (error Serve.Proto.Resource_exhausted);
  add (Some 3) (Ok (Serve.Proto.Ok_value (Some 4)));
  add (Some 3) (Ok (Serve.Proto.Ok_value None));
  add (Some 3) (Error "timed out waiting for reply");
  add (Some 3) (error Serve.Proto.Deadline_exceeded);
  add (Some 3) (Ok (Serve.Proto.Ok_count 3));
  Alcotest.(check int) "attempted" 8 t.Tally.attempted;
  Alcotest.(check int) "failed: shed, 2 wrong, timeout, error, wrong kind" 6 t.Tally.failed;
  Alcotest.(check (option string))
    "first failure" (Some "shed (RESOURCE_EXHAUSTED)") t.Tally.first_failure

let full_line ~traced =
  {
    Report.correct = true;
    attempted = 12;
    failed = 0;
    metrics =
      List.mapi
        (fun i (name, unit_) -> (name, (1.25 +. float_of_int i, unit_)))
        (Report.expected ~traced);
  }

let result_parses_back () =
  List.iter
    (fun traced ->
      let line = full_line ~traced in
      let doc =
        Report.document ~line
          ~provenance:[ ("seed", Json.Num 7.) ]
          ~details:[ ("x", Json.Str "a\"b") ]
      in
      match Result.bind (Json.parse (Json.to_string doc)) Report.line_of_document with
      | Error m -> Alcotest.fail m
      | Ok back ->
        Alcotest.(check (list string))
          "every named metric present" [] (Report.missing ~traced back);
        Alcotest.(check bool) "values round-trip" true (back = line);
        let printed = Json.to_string (Report.line_json line) in
        Alcotest.(check bool)
          "the printed line parses" true
          (Result.bind (Json.parse printed) Report.line_of_json = Ok line))
    [ false; true ];
  let full = full_line ~traced:false in
  let short = { full with Report.metrics = List.tl full.Report.metrics } in
  Alcotest.(check (list string))
    "a missing metric is named" [ "setup_s" ]
    (Report.missing ~traced:false short);
  Alcotest.(check bool) "garbage is rejected" true (Result.is_error (Json.parse "{\"a\": 1} x"))

(* BENCHMARK.json, read by whoever runs the benchmark, lists the same
   workloads and metrics as the code. *)
let catalogue_matches_benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error m -> Alcotest.fail m in
  let list k = match Json.member k j with Some (Json.Arr l) -> l | _ -> Alcotest.failf "no %s" k in
  let str k o =
    match Option.bind (Json.member k o) Json.to_str with
    | Some s -> s
    | None -> Alcotest.failf "no %s" k
  in
  let triple o = (str "name" o, str "unit" o, str "better" o) in
  Alcotest.(check (list (triple string string string)))
    "end_to_end"
    (List.map
       (fun (m : Report.e2e) -> (m.name, m.unit_, Report.better_name m.better))
       Report.end_to_end)
    (List.map triple (list "end_to_end"));
  Alcotest.(check (list (float 0.)))
    "bounds"
    (List.map (fun (m : Report.e2e) -> m.bound) Report.end_to_end)
    (List.map
       (fun o -> Option.get (Option.bind (Json.member "bound" o) Json.to_num))
       (list "end_to_end"));
  Alcotest.(check (list (triple string string string)))
    "per_layer"
    (List.map (fun (n, u, b) -> (n, u, Report.better_name b)) Report.per_layer)
    (List.map triple (list "per_layer"));
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Inputs.workload) -> w.name) Inputs.workloads)
    (List.map (str "name") (list "workloads"))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "hi percentile rule" `Quick hi_rule;
          Alcotest.test_case "segmented hi percentile" `Quick segmented;
          Alcotest.test_case "closed-loop rate, median" `Quick rates ] );
      ("inputs", [ Alcotest.test_case "same seed, same inputs" `Quick same_seed_same_inputs ]);
      ("tally", [ Alcotest.test_case "shed and wrong replies fail" `Quick failures_counted ]);
      ( "report",
        [ Alcotest.test_case "result file parses back" `Quick result_parses_back;
          Alcotest.test_case "catalogue = BENCHMARK.json" `Quick
            catalogue_matches_benchmark_json ] );
    ]
