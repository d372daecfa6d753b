(* The metric catalogue and the result a run prints.  BENCHMARK.json
   repeats the catalogue for the runner of the benchmark; a test keeps
   the two equal. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type e2e = { name : string; unit_ : string; better : better; bound : float }

let end_to_end =
  [
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
    { name = "ops_per_s"; unit_ = "1/s"; better = Higher; bound = 0.25 };
    { name = "lo_latency_ms"; unit_ = "ms"; better = Lower; bound = 0.25 };
    { name = "hi_latency_ms"; unit_ = "ms"; better = Lower; bound = 0.2 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.2 };
  ]

(* Per-layer metrics of the traced mode: name, unit, better.  A layer a
   workload never enters reads 0 there (see README.md, "Layer map"). *)
let per_layer =
  [
    ("sgraph.topology_s", "s", Lower);
    ("prng.draw_ms", "ms", Lower);
    ("gc.alloc_mb", "MB", Lower);
    ("tgraph.sort_ms", "ms", Lower);
    ("implicit.stream_ms", "ms", Lower);
    ("implicit.label_rolls", "count/op", Lower);
    ("implicit.prefix_bound", "label", Lower);
    ("batch.sweep_ms", "ms", Lower);
    ("kernel.batch_sweeps", "count/op", Lower);
    ("kernel.batch_edges_scanned", "count/op", Lower);
    ("kernel.lane_saturations", "count/op", Higher);
    ("foremost.row_us", "us", Lower);
    ("kernel.edges_scanned", "count/row", Lower);
    ("pool.busy_share", "ratio", Higher);
    ("pool.tasks", "count/op", Lower);
    ("corpus.load_s", "s", Lower);
    ("corpus.rss_mb", "MB", Lower);
    ("engine.p50_ms", "ms", Lower);
    ("engine.inproc_us", "us", Lower);
    ("engine.hit_ratio", "ratio", Higher);
    ("engine.sweeps_per_query", "count/op", Lower);
    ("engine.evictions_per_query", "count/op", Lower);
    ("engine.queue_peak", "count", Lower);
    ("engine.shed", "count", Lower);
    ("frontend.p50_ms", "ms", Lower);
    ("proto.codec_us", "us", Lower);
    ("server.cpu_us_per_query", "us", Lower);
    ("server.ctxsw_per_query", "count/op", Lower);
    ("router.hop_us", "us", Lower);
    ("trace.overhead_ms", "ms", Lower);
    ("trace.layer_sum_ms", "ms", Lower);
  ]

let expected ~traced =
  if traced then List.map (fun (name, unit_, _) -> (name, unit_)) per_layer
  else List.map (fun m -> (m.name, m.unit_)) end_to_end

type line = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;  (** name, (value, unit) *)
}

let line_json l =
  Json.Obj
    [
      ("correct", Json.Bool l.correct);
      ("attempted", Json.Num (float_of_int l.attempted));
      ("failed", Json.Num (float_of_int l.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, (v, u)) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
             l.metrics) );
    ]

let ( let* ) = Result.bind

let line_of_json j =
  let field k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or mistyped %S" k)
  in
  let* correct = field "correct" (function Json.Bool b -> Some b | _ -> None) in
  let* attempted = field "attempted" Json.to_num in
  let* failed = field "failed" Json.to_num in
  let* metrics = field "metrics" (function Json.Obj kv -> Some kv | _ -> None) in
  let* metrics =
    List.fold_right
      (fun (k, m) acc ->
        let* acc = acc in
        match (Option.bind (Json.member "value" m) Json.to_num,
               Option.bind (Json.member "unit" m) Json.to_str) with
        | Some v, Some u -> Ok ((k, (v, u)) :: acc)
        | _ -> Error (Printf.sprintf "metric %S lacks a numeric value or a unit" k))
      metrics (Ok [])
  in
  Ok { correct; attempted = int_of_float attempted; failed = int_of_float failed; metrics }

(* Names of the catalogue's metrics that a line lacks or gives another
   unit. *)
let missing ~traced l =
  List.filter_map
    (fun (name, unit_) ->
      match List.assoc_opt name l.metrics with
      | Some (_, u) when u = unit_ -> None
      | _ -> Some name)
    (expected ~traced)

(* The result file: the printed line under "result", plus where it came
   from and the details the line has no room for. *)
let document ~line ~provenance ~details =
  Json.Obj
    [
      ("schema", Json.Str "ephemeral-perfbench/v1");
      ("result", line_json line);
      ("provenance", Json.Obj provenance);
      ("details", Json.Obj details);
    ]

let line_of_document j =
  match Json.member "result" j with
  | Some r -> line_of_json r
  | None -> Error "missing \"result\""
