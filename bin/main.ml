(* `ephemeral` — command-line interface to the reproduction.

   `ephemeral run` regenerates the experiment tables; the remaining
   commands are ad-hoc probes into the library (single instances,
   journeys, expansion runs) useful for exploration and debugging. *)

open Cmdliner
module Rng = Prng.Rng
open Temporal

(* ------------------------------------------------------------------ *)
(* Common options *)

let seed_term =
  let doc = "Random seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int Sim.Experiments.default_seed & info [ "seed" ] ~doc)

let quick_term =
  let doc = "Reduced scale: smaller sizes and fewer trials." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let n_term =
  let doc = "Number of vertices." in
  Arg.(value & opt int 64 & info [ "n" ] ~doc)

let family_term =
  let doc = "Graph family: clique, uclique, star, path, cycle, grid, \
             hypercube, btree, wheel, rtree, gnp:<c>." in
  Arg.(value & opt Family.conv Family.Clique_directed & info [ "graph"; "g" ] ~doc)

let trials_term =
  let doc = "Number of Monte-Carlo trials." in
  Arg.(value & opt int 30 & info [ "trials" ] ~doc)

let lifetime_term =
  let doc = "Lifetime a (default: the vertex count, the normalized case)." in
  Arg.(value & opt (some int) None & info [ "a"; "lifetime" ] ~doc)

let r_term =
  let doc = "Random labels per edge." in
  Arg.(value & opt int 1 & info [ "r" ] ~doc)

let jobs_term =
  let doc =
    "Worker domains for trial execution (default: $(b,EPHEMERAL_JOBS) or \
     the recommended domain count). Output is byte-identical at every \
     job count."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let backend_term =
  let doc =
    "Temporal-instance representation: $(b,dense) (materialized label \
     arrays and a full counting-sorted time-edge stream) or $(b,implicit) \
     (labels derived on demand from one 64-bit seed behind a lazy prefix \
     stream — O(n) working set on the normalized clique instead of \
     O(n^2)). Both realise label-identical instances, so every table is \
     byte-identical under either; the choice keys the result store and \
     is recorded in the run ledger."
  in
  let choices =
    List.map (fun b -> (Sim.Backend.to_string b, b)) Sim.Backend.all
  in
  Arg.(
    value
    & opt (enum choices) Sim.Backend.Dense
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let lifetime_of n = function Some a -> a | None -> n

(* ------------------------------------------------------------------ *)
(* Observability options *)

let metrics_term =
  let doc =
    "Collect telemetry and print an end-of-run summary: one row per span \
     (count, total/mean wall ms, GC words) plus every registered metric."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_term =
  let doc =
    "Write every completed span as one JSON object per line to $(docv) \
     (schema v2 fields: name, domain, depth, start_ns, dur_ns, \
     minor_words, major_words). Analyse with $(b,ephemeral trace)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let report_term =
  let doc =
    "Write a machine-readable run ledger (one JSON document: code \
     fingerprint, seed, jobs, metric and span snapshots) atomically to \
     $(docv). The ledger's $(b,deterministic) section is byte-identical \
     at any --jobs."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

(* Returns the teardown to run after the instrumented work: closes the
   trace sink and prints the summary, in that order.  The sink close
   is also registered as a shutdown hook, so SIGINT/SIGTERM publish
   the partial trace (close renames the tmp file into place and is
   idempotent — whichever of the hook and the teardown runs first
   wins). *)
let setup_obs ~metrics ~trace =
  let sink =
    Option.map
      (fun path ->
        let sink = Obs.Sink.open_jsonl path in
        Obs.Sink.attach sink;
        Fault.Shutdown.on_shutdown (fun () -> Obs.Sink.close sink);
        sink)
      trace
  in
  if metrics || Option.is_some sink then Obs.Control.set_enabled true;
  fun () ->
    Option.iter Obs.Sink.close sink;
    if metrics then Obs.Export.print_summary ()

(* ------------------------------------------------------------------ *)
(* Fault-injection and supervision options *)

let fault_spec_term =
  let doc =
    "Arm a deterministic fault plan: comma-separated key=value over seed, \
     trial, fatal, delay, delay-ms, io, torn, poison (e.g. \
     $(b,seed=7,trial=0.05,io=0.05,torn=0.3)). Faults derive from the plan \
     seed alone, so a plan injects identically at any --jobs."
  in
  Arg.(value & opt (some string) None & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

let max_retries_term =
  let doc =
    "Retry a failed trial up to $(docv) times; each attempt replays the \
     trial's own RNG stream, so output stays byte-identical to a fault-free \
     run."
  in
  Arg.(value & opt int 0 & info [ "max-retries" ] ~docv:"N" ~doc)

let trial_timeout_term =
  let doc =
    "Discard and retry any trial attempt that takes longer than $(docv) \
     seconds (checked after the attempt; OCaml code cannot be preempted)."
  in
  Arg.(value & opt (some float) None & info [ "trial-timeout" ] ~docv:"SECS" ~doc)

let run_deadline_term =
  let doc =
    "After $(docv) seconds of run time, stop starting trial attempts; \
     remaining trials fail (with $(b,--keep-going): are dropped)."
  in
  Arg.(value & opt (some float) None & info [ "run-deadline" ] ~docv:"SECS" ~doc)

let keep_going_term =
  let doc =
    "Degrade instead of aborting when a trial exhausts its retries: finish \
     on the surviving trials, widen bootstrap CIs, flag every table and \
     CSV as degraded, and still exit 0."
  in
  Arg.(value & flag & info [ "keep-going" ] ~doc)

(* Parse/arm the plan and install the supervision config.  [Error]
   means a malformed spec: report and exit non-zero before any work. *)
let setup_faults ~fault_spec ~max_retries ~trial_timeout ~run_deadline ~keep_going
    =
  match Option.map Fault.Spec.parse fault_spec with
  | Some (Error msg) -> Error (Printf.sprintf "bad --fault-spec: %s" msg)
  | (None | Some (Ok _)) as parsed ->
    (match parsed with
    | Some (Ok plan) -> Fault.Inject.arm plan
    | _ -> Fault.Inject.disarm ());
    Sim.Supervise.configure
      { Sim.Supervise.max_retries; trial_timeout; run_deadline; keep_going };
    Ok ()

(* ------------------------------------------------------------------ *)
(* Store options *)

let store_dir_term =
  let doc = "Result store directory." in
  Arg.(value & opt string Store.Objects.default_dir
       & info [ "store" ] ~docv:"DIR" ~doc)

let cache_term =
  let doc =
    "Serve experiment outcomes from the result store when a cached copy \
     matches (same id, seed, scale and code fingerprint), and publish \
     fresh outcomes into it. Cached output is byte-identical to a fresh \
     run."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let resume_term =
  let doc =
    "Checkpoint finished trial chunks under the store directory and, on \
     restart after an interruption, load them instead of recomputing. A \
     resumed run is byte-identical to an uninterrupted one."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* ------------------------------------------------------------------ *)
(* run / list *)

let run_cmd =
  let ids_term =
    let doc = "Experiment ids to run (default: all). E.g. e1 e4." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let csv_term =
    let doc = "Also write each table as CSV into $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let md_term =
    let doc = "Also write each experiment as Markdown into $(docv)." in
    Arg.(value & opt (some string) None & info [ "md" ] ~docv:"DIR" ~doc)
  in
  let run ids quick seed backend csv md metrics trace report jobs cache
      store_dir resume fault_spec max_retries trial_timeout run_deadline
      keep_going =
    Option.iter Exec.Pool.set_jobs jobs;
    Sim.Backend.set backend;
    Fault.Shutdown.install ();
    let selected =
      match ids with
      | [] -> Ok Sim.Experiments.all
      | ids ->
        let rec resolve acc = function
          | [] -> Ok (List.rev acc)
          | id :: rest -> (
            match Sim.Experiments.find id with
            | Some e -> resolve (e :: acc) rest
            | None -> Error (Printf.sprintf "unknown experiment id %S" id))
        in
        resolve [] ids
    in
    match selected with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok experiments ->
    match
      setup_faults ~fault_spec ~max_retries ~trial_timeout ~run_deadline
        ~keep_going
    with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok () ->
    match setup_obs ~metrics ~trace with
    | exception Sys_error msg ->
      Printf.eprintf "cannot open trace file: %s\n" msg;
      1
    | teardown ->
      (* The ledger consumes the metrics/span snapshots, so --report
         implies collection even without --metrics/--trace. *)
      if report <> None then Obs.Control.set_enabled true;
      let t0 = Obs.Clock.now () in
      let store = if cache then Some (Store.Objects.open_ ~dir:store_dir) else None in
      let run_one exp =
        let cached =
          match store with
          | Some s -> Sim.Cache.get s exp ~seed ~quick
          | None -> None
        in
        let outcome =
          match cached with
          | Some outcome ->
            (* Cache hit: the stored outcome renders byte-identically
               to a fresh run, with zero trials executed. *)
            Sim.Report.print_outcome exp outcome;
            outcome
          | None ->
            let run_key = Sim.Cache.key exp ~seed ~quick in
            if resume then Store.Checkpoint.activate ~dir:store_dir ~run_key;
            let outcome =
              Fun.protect ~finally:Store.Checkpoint.deactivate (fun () ->
                  Sim.Report.run_and_print ~quick ~seed exp)
            in
            (* The outcome is complete (and, with --cache, published),
               so its chunks have served their purpose. *)
            if resume then Store.Checkpoint.clean ~dir:store_dir ~run_key;
            (* A degraded outcome holds partial results: never publish
               it — a later hit could not be told from a clean run. *)
            if not (Sim.Supervise.degraded ()) then
              Option.iter
                (fun s -> Sim.Cache.put s exp ~seed ~quick outcome)
                store;
            outcome
        in
        Option.iter (fun dir -> ignore (Sim.Report.save_csv ~dir exp outcome)) csv;
        Option.iter
          (fun dir -> ignore (Sim.Report.save_markdown ~dir exp outcome))
          md
      in
      let status =
        (* Without --keep-going, a trial that exhausts its retries (or
           hits the run deadline) aborts the whole command, non-zero. *)
        try
          List.iter run_one experiments;
          0
        with Sim.Supervise.Trial_failed f ->
          Printf.eprintf
            "error: trial %d failed after %d attempt%s: %s\n\
             (use --max-retries to retry transient faults, --keep-going to \
             finish on partial results)\n"
            f.trial f.attempts
            (if f.attempts = 1 then "" else "s")
            f.message;
          1
      in
      let report_status =
        match report with
        | None -> 0
        | Some path -> (
          let run_status =
            if status <> 0 then "failed"
            else if Sim.Supervise.degraded () then "degraded"
            else "ok"
          in
          match
            Sim.Ledger.write ~path ~seed ~quick ~backend:(Sim.Backend.tag ())
              ~jobs:(Exec.Config.jobs ())
              ~experiments:
                (List.map (fun (e : Sim.Experiments.t) -> e.id) experiments)
              ~status:run_status
              ~wall_ns:(Obs.Clock.elapsed_ns ~since:t0)
          with
          | () -> 0
          | exception Sys_error msg ->
            Printf.eprintf "cannot write report: %s\n" msg;
            1)
      in
      teardown ();
      Stdlib.max status report_status
  in
  let doc = "Run reproduction experiments and print their tables." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ ids_term $ quick_term $ seed_term $ backend_term
          $ csv_term $ md_term
          $ metrics_term $ trace_term $ report_term $ jobs_term $ cache_term
          $ store_dir_term $ resume_term $ fault_spec_term $ max_retries_term
          $ trial_timeout_term $ run_deadline_term $ keep_going_term)

(* ------------------------------------------------------------------ *)
(* chaos: soak an experiment under seed-varied fault plans *)

let chaos_cmd =
  let id_term =
    let doc = "Experiment id to soak." in
    Arg.(value & pos 0 string "e1" & info [] ~docv:"ID" ~doc)
  in
  let rounds_term =
    let doc = "Fault-injected rounds to run (each with a distinct plan seed)." in
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let chaos_spec_term =
    let doc =
      "Base fault plan; each round bumps its seed. Plans with fatal=0 must \
       reproduce the fault-free bytes under retries; fatal faults require \
       $(b,--keep-going) and must surface as degraded tables."
    in
    Arg.(value
         & opt string "trial=0.05,delay=0.02,delay-ms=1,io=0.05,torn=0.3,poison=0.2"
         & info [ "fault-spec" ] ~docv:"SPEC" ~doc)
  in
  let chaos_retries_term =
    let doc = "Retry budget per trial during the soak." in
    Arg.(value & opt int 5 & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i =
      i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
    in
    nl = 0 || scan 0
  in
  let serve_flag_term =
    let doc =
      "Soak the live query server instead of an experiment: fork \
       $(b,ephemeral serve) with the fault plan armed, drive it through \
       correctness bursts, malformed frames, connection drops, slow-loris \
       reads, overload and SIGTERM mid-burst, and require every reply to \
       be oracle-correct or a clean typed error, a drain exit of 0, an \
       atomically published ledger, and an admission-queue peak within \
       bound."
    in
    Arg.(value & flag & info [ "serve" ] ~doc)
  in
  let serve_dir_term =
    let doc = "Scratch directory for the --serve soak (socket, manifest, \
               store, ledger), kept afterwards.  Without it the soak uses \
               $(b,ephemeral-soak-PID) under the temporary directory, \
               removed after a passing soak and kept (its path printed) \
               after a failing one." in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let soak_shards_term =
    let doc =
      "With $(b,--serve): run the child as a sharded router over $(docv) \
       shard workers and arm the shard-kill fault, so crash-respawn is \
       soaked under live traffic.  0 (the default) soaks the \
       single-process server."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let run_serve_soak ~quick ~seed ~jobs ~spec ~serve_dir ~backend ~shards =
    let dir =
      match serve_dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "ephemeral-soak-%d" (Unix.getpid ()))
    in
    (* A directory of our own making goes after a passing soak; after a
       failing one it stays, for its ledger and store. *)
    let settle passed =
      if serve_dir <> None then ()
      else if passed then Store.Fsio.remove_tree dir
      else Printf.printf "  kept %s\n" dir
    in
    let jobs = Option.value jobs ~default:2 in
    match
      Serve.Soak.run ~exe:Sys.executable_name ~dir ~seed ~quick
        ~fault_spec:(Some spec) ~backend ~jobs ~shards
    with
    | Error m ->
      Printf.eprintf "chaos --serve: %s\n" m;
      settle false;
      1
    | Ok o ->
      Printf.printf "chaos --serve: %d checks, %d violation%s\n" o.Serve.Soak.checks
        (List.length o.Serve.Soak.violations)
        (if List.length o.Serve.Soak.violations = 1 then "" else "s");
      Printf.printf "  %d queries, p50 %.2f ms, p99 %.2f ms, %.0f q/s\n"
        o.Serve.Soak.queries o.Serve.Soak.p50_ms o.Serve.Soak.p99_ms
        o.Serve.Soak.qps;
      Printf.printf "  server exit %s, ledger %s\n"
        (match o.Serve.Soak.server_exit with
        | Some c -> string_of_int c
        | None -> "hung (killed)")
        (if o.Serve.Soak.ledger_ok then "published" else "MISSING");
      List.iter
        (fun v -> Printf.printf "  FAIL %s\n" v)
        o.Serve.Soak.violations;
      let passed = o.Serve.Soak.violations = [] in
      settle passed;
      if passed then begin
        print_endline "chaos serve soak passed";
        0
      end
      else 1
  in
  let run id quick seed jobs rounds spec retries keep_going serve_mode
      serve_dir backend shards =
    if serve_mode then
      run_serve_soak ~quick ~seed ~jobs ~spec ~serve_dir ~backend ~shards
    else begin
    Option.iter Exec.Pool.set_jobs jobs;
    Fault.Shutdown.install ();
    match Sim.Experiments.find id with
    | None ->
      Printf.eprintf "unknown experiment id %S\n" id;
      1
    | Some exp -> (
      match Fault.Spec.parse spec with
      | Error msg ->
        Printf.eprintf "bad --fault-spec: %s\n" msg;
        1
      | Ok base ->
        (* Fault-free reference bytes, supervision fully off. *)
        Fault.Inject.disarm ();
        Sim.Supervise.configure Sim.Supervise.default;
        let baseline = Sim.Outcome.render (exp.run ~quick ~seed) in
        let identical = ref 0
        and degraded_rounds = ref 0
        and aborted = ref 0
        and bad = ref [] in
        for round = 1 to rounds do
          let plan = { base with Fault.Plan.seed = Int64.add base.seed (Int64.of_int round) } in
          Fault.Inject.arm plan;
          Sim.Supervise.configure
            { Sim.Supervise.default with max_retries = retries; keep_going };
          (match exp.run ~quick ~seed with
          | outcome ->
            let rendered =
              Sim.Outcome.render (Sim.Report.annotate_degraded outcome)
            in
            if not (Sim.Supervise.degraded ()) then begin
              if rendered = baseline then incr identical
              else
                bad :=
                  Printf.sprintf
                    "round %d (plan %s): output differs from the fault-free \
                     run despite all trials succeeding"
                    round (Fault.Spec.to_string plan)
                  :: !bad
            end
            else begin
              (* Partial results are acceptable only when asked for,
                 and must be visibly flagged. *)
              incr degraded_rounds;
              if not keep_going then
                bad :=
                  Printf.sprintf
                    "round %d (plan %s): degraded without --keep-going" round
                    (Fault.Spec.to_string plan)
                  :: !bad
              else if not (contains rendered "degraded") then
                bad :=
                  Printf.sprintf
                    "round %d (plan %s): partial results not flagged degraded"
                    round (Fault.Spec.to_string plan)
                  :: !bad
            end
          | exception Sim.Supervise.Trial_failed f ->
            incr aborted;
            if base.Fault.Plan.fatal = 0. then
              bad :=
                Printf.sprintf
                  "round %d (plan %s): aborted on trial %d (%s) though every \
                   injected fault was retryable"
                  round (Fault.Spec.to_string plan) f.trial f.message
                :: !bad)
        done;
        Fault.Inject.disarm ();
        Sim.Supervise.configure Sim.Supervise.default;
        let count name = Obs.Metrics.count (Obs.Metrics.counter name) in
        Printf.printf
          "chaos %s: %d round%s — %d byte-identical, %d degraded, %d aborted\n"
          exp.id rounds
          (if rounds = 1 then "" else "s")
          !identical !degraded_rounds !aborted;
        Printf.printf
          "  faults injected %d (trial %d, delay %d, io %d, poison %d)\n"
          (count "faults.injected") (count "faults.trial") (count "faults.delay")
          (count "faults.io") (count "faults.poison");
        Printf.printf "  trials retried %d, failed %d; store io retries %d\n"
          (count "trials.retried") (count "trials.failed")
          (count "store.io_retries");
        List.iter (fun msg -> Printf.printf "  FAIL %s\n" msg) (List.rev !bad);
        if !bad = [] then begin
          print_endline "chaos soak passed";
          0
        end
        else 1)
    end
  in
  let doc =
    "Soak an experiment under deterministic fault injection: repeated runs \
     under seed-varied plans must stay byte-identical to the fault-free run \
     (retryable faults) or finish flagged degraded (--keep-going with fatal \
     faults). With $(b,--serve), soak the live query server instead. \
     Non-zero exit on any unflagged divergence."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ id_term $ quick_term $ seed_term $ jobs_term
          $ rounds_term $ chaos_spec_term $ chaos_retries_term
          $ keep_going_term $ serve_flag_term $ serve_dir_term $ backend_term
          $ soak_shards_term)

(* ------------------------------------------------------------------ *)
(* serve / query: the temporal-reachability service and its client *)

let serve_socket_term =
  let doc =
    "Listening address: a Unix-socket path, or $(b,tcp:HOST:PORT)."
  in
  Arg.(value & opt string "ephemeral.sock" & info [ "socket" ] ~docv:"ADDR" ~doc)

let serve_cmd =
  let manifest_term =
    let doc =
      "Corpus manifest: one instance spec per line \
       ($(b,id=clq,family=clique,n=1024,a=1024,r=1,seed=7)); \
       $(b,#) comments and blank lines are skipped. An instance that \
       fails to load is kept degraded (queries answer Unavailable) while \
       the rest serve."
    in
    Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)
  in
  let instance_term =
    let doc = "Inline instance spec (repeatable), appended to the manifest." in
    Arg.(value & opt_all string [] & info [ "instance" ] ~docv:"SPEC" ~doc)
  in
  let queue_max_term =
    let doc =
      "Admission-queue bound: a submit against a full queue is shed with \
       a RESOURCE_EXHAUSTED reply, never queued — memory stays bounded \
       under any load."
    in
    Arg.(value & opt int Serve.Engine.default_config.Serve.Engine.queue_max
         & info [ "queue-max" ] ~docv:"N" ~doc)
  in
  let read_timeout_term =
    let doc =
      "Per-frame read deadline in seconds: a peer that trickles bytes \
       (slow loris) holds a connection at most this long."
    in
    Arg.(value & opt float 10. & info [ "read-timeout" ] ~docv:"SECS" ~doc)
  in
  let window_term =
    let doc =
      "Coalescing window in milliseconds: the thread that runs a dispatch \
       cycle waits this long before it takes the queue, so concurrent \
       clients share one batched sweep."
    in
    Arg.(value & opt float 0. & info [ "batch-window-ms" ] ~docv:"MS" ~doc)
  in
  let cache_rows_term =
    let doc = "In-memory arrival-row cache size (rows; 0 disables)." in
    Arg.(value & opt int 4096 & info [ "cache-rows" ] ~docv:"N" ~doc)
  in
  let serve_store_term =
    let doc =
      "Persist arrival rows in a result store at $(docv): hits skip the \
       sweep; IO is retried with deterministic jitter under a wall-time \
       budget and degrades to recompute."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let shards_term =
    let doc =
      "Shard the corpus over $(docv) supervised worker processes, each \
       owning a consistent-hash partition of the manifest with its own \
       Exec pool, row cache, and store handle; this process routes frames \
       by instance id, respawns crashed shards with bounded backoff, and \
       merges per-shard ledgers on drain. 0 = classic single-process \
       serve. Requires a Unix-socket $(b,--socket)."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let shard_index_term =
    let doc =
      "Internal: run as shard $(docv) of $(b,--shards), serving only the \
       manifest lines this shard owns. Spawned by the router — not for \
       direct use."
    in
    Arg.(value & opt (some int) None
         & info [ "shard-index" ] ~docv:"K" ~doc)
  in
  let run socket manifest instances backend jobs queue_max read_timeout
      window_ms cache_rows store_dir report fault_spec metrics trace seed
      shards shard_index =
    Option.iter Exec.Pool.set_jobs jobs;
    Sim.Backend.set backend;
    match Option.map Fault.Spec.parse fault_spec with
    | Some (Error msg) ->
      Printf.eprintf "bad --fault-spec: %s\n" msg;
      1
    | parsed -> (
      let plan =
        match parsed with Some (Ok plan) -> plan | _ -> Fault.Plan.default
      in
      let shard =
        match shard_index with
        | Some k when shards > 0 -> Some (k, shards)
        | _ -> None
      in
      let as_router = shards > 0 && shard = None in
      (* A shard runs the router's argv plus --shard-index: its socket
         and ledger derive from the router's. *)
      let per_shard path =
        match shard with Some (k, _) -> Serve.Shard.path path k | None -> path
      in
      (* Injection arms where the work runs: in the single process, or
         in each shard (the spec rides the respawn argv).  The router
         itself only rolls the shard-kill site from the plan value —
         arming it would let io faults hit the merged-ledger write. *)
      if not as_router then
        if Fault.Plan.active plan then Fault.Inject.arm plan
        else Fault.Inject.disarm ();
      match Serve.Server.parse_address (per_shard socket) with
      | Error m ->
        Printf.eprintf "bad --socket: %s\n" m;
        1
      | Ok address -> (
        let server =
          {
            Serve.Server.address;
            read_timeout_s = read_timeout;
            ledger_path = Option.map per_shard report;
            announce = (if shard = None then Some stdout else None);
          }
        in
        let manifest_lines =
          match manifest with
          | None -> Ok []
          | Some path -> (
            match Store.Fsio.read_file path with
            | None -> Error (Printf.sprintf "cannot read manifest %s" path)
            | Some body -> Ok (String.split_on_char '\n' body))
        in
        match manifest_lines with
        | Error m ->
          prerr_endline m;
          1
        | Ok lines ->
          let all_lines = lines @ instances in
          if as_router then begin
            match (address, Serve.Corpus.manifest_ids all_lines) with
            | Serve.Server.Tcp _, _ ->
              prerr_endline "--shards requires a Unix-socket --socket";
              1
            | _, [] ->
              prerr_endline "no instances: pass --manifest and/or --instance";
              1
            | Serve.Server.Unix_path _, manifest_ids ->
              let teardown = setup_obs ~metrics ~trace in
              let shard_argv k =
                Array.concat
                  [ [| Sys.executable_name |];
                    Array.sub Sys.argv 1 (Array.length Sys.argv - 1);
                    [| "--shard-index"; string_of_int k |] ]
              in
              let code =
                match
                  Serve.Router.run
                    { Serve.Router.server; shards; shard_argv; queue_max;
                      manifest_ids; backend; fault = plan }
                with
                | Ok () -> 0
                | Error m ->
                  prerr_endline m;
                  1
              in
              teardown ();
              code
          end
          else begin
            let corpus = Serve.Corpus.load ?shard ~backend all_lines in
            let is_shard = shard <> None in
            match Serve.Corpus.instances corpus with
            | [] when not is_shard ->
              prerr_endline "no instances: pass --manifest and/or --instance";
              1
            | all ->
              List.iter
                (fun (i : Serve.Corpus.instance) ->
                  match i.Serve.Corpus.status with
                  | Serve.Corpus.Failed m ->
                    Printf.eprintf "instance %s failed to load: %s\n"
                      i.Serve.Corpus.spec_id m
                  | Serve.Corpus.Available _ -> ())
                all;
              (* A shard may legitimately own an empty or entirely
                 failed partition; only a whole single-process corpus
                 refuses. *)
              if (not is_shard) && not (Serve.Corpus.healthy corpus) then begin
                prerr_endline
                  "every instance failed to load; refusing to serve";
                1
              end
              else begin
                let store =
                  Option.map (fun dir -> Store.Objects.open_ ~dir) store_dir
                in
                (* --metrics and --trace belong to the router. *)
                let teardown =
                  if is_shard then ignore else setup_obs ~metrics ~trace
                in
                let engine =
                  {
                    Serve.Engine.queue_max;
                    batch_window_s = window_ms /. 1000.;
                    cache_max = cache_rows;
                    store;
                    jitter_seed = Int64.of_int seed;
                  }
                in
                Serve.Server.run ~config:server ~engine corpus;
                teardown ();
                0
              end
          end))
  in
  let doc =
    "Serve temporal-reachability queries (foremost, arrivals, reach, ecc) \
     over a length-prefixed binary protocol on a Unix or TCP socket. \
     Concurrent queries against one instance coalesce into word-parallel \
     batched sweeps; replies are byte-identical at any --jobs and either \
     backend. Robustness: bounded admission with load shedding, \
     per-request deadlines with cooperative cancellation, retried store \
     IO, degraded instances served as Unavailable, and a graceful \
     SIGTERM drain (stop accepting, flush in-flight, publish the ledger \
     atomically, exit 0)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ serve_socket_term $ manifest_term $ instance_term
          $ backend_term $ jobs_term $ queue_max_term $ read_timeout_term
          $ window_term $ cache_rows_term $ serve_store_term $ report_term
          $ fault_spec_term $ metrics_term $ trace_term $ seed_term
          $ shards_term $ shard_index_term)

let query_cmd =
  let script_term =
    let doc =
      "Run the commands in $(docv), one per line ($(b,#) comments \
       skipped), printing one deterministic result line each — the \
       byte-diffable scripted-session mode CI uses."
    in
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let words_term =
    let doc =
      "A single command: $(b,ping) | $(b,health) | $(b,ready) | $(b,list) \
       | $(b,stats) | $(b,foremost) INST SRC TGT [DEADLINE_MS] | \
       $(b,arrivals) INST SRC | $(b,reach) INST SRC | $(b,ecc) INST SRC."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"COMMAND" ~doc)
  in
  let timeout_term =
    let doc = "Per-call reply timeout in seconds." in
    Arg.(value & opt float 30. & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let parse_command line =
    let int_arg what s =
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%s %S is not an integer" what s)
    in
    let query ?(target = 0) ?(deadline_ms = 0) instance source =
      { Serve.Proto.instance; source; target; deadline_ms }
    in
    match
      String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
    with
    | [ "ping" ] -> Ok Serve.Proto.Ping
    | [ "health" ] -> Ok Serve.Proto.Health
    | [ "ready" ] -> Ok Serve.Proto.Ready
    | [ "list" ] -> Ok Serve.Proto.List
    | [ "stats" ] -> Ok Serve.Proto.Stats
    | [ "foremost"; inst; src; tgt ] -> (
      match (int_arg "source" src, int_arg "target" tgt) with
      | Ok s, Ok t -> Ok (Serve.Proto.Foremost (query ~target:t inst s))
      | Error m, _ | _, Error m -> Error m)
    | [ "foremost"; inst; src; tgt; dl ] -> (
      match (int_arg "source" src, int_arg "target" tgt, int_arg "deadline" dl)
      with
      | Ok s, Ok t, Ok d ->
        Ok (Serve.Proto.Foremost (query ~target:t ~deadline_ms:d inst s))
      | Error m, _, _ | _, Error m, _ | _, _, Error m -> Error m)
    | [ "arrivals"; inst; src ] -> (
      match int_arg "source" src with
      | Ok s -> Ok (Serve.Proto.Arrivals (query inst s))
      | Error m -> Error m)
    | [ "reach"; inst; src ] -> (
      match int_arg "source" src with
      | Ok s -> Ok (Serve.Proto.Reach (query inst s))
      | Error m -> Error m)
    | [ "ecc"; inst; src ] -> (
      match int_arg "source" src with
      | Ok s -> Ok (Serve.Proto.Ecc (query inst s))
      | Error m -> Error m)
    | [] -> Error "empty command"
    | w :: _ -> Error (Printf.sprintf "unknown command %S" w)
  in
  let run socket script words timeout =
    match Serve.Server.parse_address socket with
    | Error m ->
      Printf.eprintf "bad --socket: %s\n" m;
      1
    | Ok address -> (
      let commands =
        match script with
        | Some path -> (
          match Store.Fsio.read_file path with
          | None -> Error (Printf.sprintf "cannot read script %s" path)
          | Some body ->
            Ok
              (String.split_on_char '\n' body
              |> List.filter (fun l ->
                     let t = String.trim l in
                     t <> "" && t.[0] <> '#')))
        | None -> (
          match words with
          | [] -> Error "no command: pass one, or --script FILE"
          | ws -> Ok [ String.concat " " ws ])
      in
      match commands with
      | Error m ->
        prerr_endline m;
        1
      | Ok commands -> (
        match Serve.Client.connect address with
        | Error m ->
          Printf.eprintf "connect %s: %s\n" socket m;
          1
        | Ok client ->
          let failed = ref false in
          List.iter
            (fun line ->
              let line = String.trim line in
              match parse_command line with
              | Error m -> Printf.printf "%s -> bad command: %s\n" line m
              | Ok req -> (
                match Serve.Client.call ~timeout_s:timeout client req with
                | Ok resp ->
                  Printf.printf "%s -> %s\n" line
                    (Serve.Proto.render_response resp)
                | Error m ->
                  failed := true;
                  Printf.printf "%s -> transport error: %s\n" line m))
            commands;
          Serve.Client.close client;
          if !failed then 1 else 0))
  in
  let doc =
    "Query a running $(b,ephemeral serve): one-shot from the command \
     line, or a scripted session with $(b,--script) whose output is \
     deterministic and byte-diffable across server job counts and \
     backends. Typed server errors render as result lines (exit 0); \
     only transport failures exit non-zero."
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ serve_socket_term $ script_term $ words_term
          $ timeout_term)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Sim.Experiments.t) ->
        Printf.printf "%-4s %-55s [%s]\n" e.id e.title e.paper_ref)
      Sim.Experiments.all;
    0
  in
  let doc = "List available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* diameter *)

let diameter_cmd =
  let run family n lifetime r trials seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let stats = Sim.Estimators.temporal_diameter rng g ~a ~r ~trials in
    Printf.printf
      "graph=%s n=%d m=%d a=%d r=%d trials=%d\n"
      (Family.to_string family) (Sgraph.Graph.n g) (Sgraph.Graph.m g) a r trials;
    Format.printf "temporal diameter: %a@." Stats.Summary.pp stats.summary;
    Printf.printf "  disconnected instances: %d / %d\n" stats.disconnected trials;
    0
  in
  let doc = "Estimate the temporal diameter of a random temporal network." in
  Cmd.v (Cmd.info "diameter" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ trials_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* reach / min-r *)

let reach_cmd =
  let run family n lifetime r trials seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let p = Por.success_probability rng g ~a ~r ~trials in
    Printf.printf
      "P(Treach) for %s, n=%d, a=%d, r=%d: %.3f (%d trials)\n"
      (Family.to_string family) (Sgraph.Graph.n g) a r p trials;
    0
  in
  let doc = "Empirical probability that r random labels per edge preserve \
             reachability." in
  Cmd.v (Cmd.info "reach" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ trials_term $ seed_term)

let min_r_cmd =
  let target_term =
    let doc = "Target success probability (default: 1 - 1/n)." in
    Arg.(value & opt (some float) None & info [ "target" ] ~doc)
  in
  let run family n lifetime target trials seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let gn = Sgraph.Graph.n g in
    let a = lifetime_of gn lifetime in
    let target = Option.value target ~default:(Por.whp_target ~n:gn) in
    (match Por.report rng ~name:(Family.to_string family) g ~a ~target ~trials with
    | None -> Printf.printf "no r up to the search cap reached the target\n"
    | Some report ->
      Printf.printf "graph=%s n=%d m=%d a=%d target=%.3f\n" report.graph_name
        report.n report.m a target;
      Printf.printf "  min r        : %d (rate %.3f)\n" report.estimate.r
        report.estimate.success_rate;
      Printf.printf "  thm7 bound   : %.1f   coupon bound: %.1f\n"
        report.thm7_bound report.coupon_bound;
      Printf.printf "  PoR          : %.1f .. %.1f (against OPT in [%d, %d])\n"
        report.por_lower report.por_upper report.opt_lower report.opt_upper);
    0
  in
  let doc = "Search the minimal r that guarantees temporal reachability whp \
             (Definition 8) and report the Price of Randomness." in
  Cmd.v (Cmd.info "min-r" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ target_term
          $ trials_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* flood *)

let flood_cmd =
  let source_term =
    let doc = "Source vertex." in
    Arg.(value & opt int 0 & info [ "source"; "s" ] ~doc)
  in
  let run family n lifetime r source seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    let result = Flooding.run net source in
    Printf.printf "flooding from %d on %s (n=%d, a=%d, r=%d):\n" source
      (Family.to_string family) (Sgraph.Graph.n g) a r;
    Printf.printf "  informed: %d/%d   transmissions: %d\n"
      result.informed_count (Sgraph.Graph.n g) result.transmissions;
    (match result.completion_time with
    | Some t -> Printf.printf "  completed at time %d (ln n = %.2f)\n" t
                  (log (float_of_int (Sgraph.Graph.n g)))
    | None -> Printf.printf "  did not reach every vertex within the lifetime\n");
    (* Timeline: how many vertices were informed by each time step. *)
    let informed_by t =
      Array.fold_left
        (fun acc x -> if x <= t then acc + 1 else acc)
        0 result.informed_time
    in
    let horizon =
      Option.value result.completion_time ~default:(Tgraph.lifetime net)
    in
    Printf.printf "  timeline (t: informed):";
    let step = Stdlib.max 1 (horizon / 12) in
    let t = ref 0 in
    while !t <= horizon do
      Printf.printf " %d:%d" !t (informed_by !t);
      t := !t + step
    done;
    print_newline ();
    0
  in
  let doc = "Simulate the section-3.5 flooding protocol on one sampled \
             instance." in
  Cmd.v (Cmd.info "flood" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ source_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* expansion *)

let expansion_cmd =
  let c1_term =
    let doc = "Window constant c1." in
    Arg.(value & opt float 2.0 & info [ "c1" ] ~doc)
  in
  let c2_term =
    let doc = "Middle window width c2." in
    Arg.(value & opt int 6 & info [ "c2" ] ~doc)
  in
  let pair_term =
    let doc = "Source and target, e.g. --pair 0,1." in
    Arg.(value & opt (pair int int) (0, 1) & info [ "pair" ] ~doc)
  in
  let run n c1 c2 (s, t) seed =
    let rng = Rng.create seed in
    let g = Sgraph.Gen.clique Directed n in
    let net = Assignment.normalized_uniform rng g in
    let params = Expansion.default_params ~c1 ~c2 ~n () in
    let outcome = Expansion.run net params ~s ~t in
    Printf.printf
      "expansion on the normalized U-RTN clique n=%d: l1=%d c2=%d d=%d \
       horizon=%d\n"
      n params.l1 params.c2 params.d (Expansion.horizon params);
    Printf.printf "  forward layers : %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int outcome.forward_layers)));
    Printf.printf "  backward layers: %s\n"
      (String.concat " "
         (Array.to_list (Array.map string_of_int outcome.backward_layers)));
    (match (outcome.success, outcome.journey) with
    | true, Some j ->
      Format.printf "  journey (%d -> %d, arrival %s):@.    %a@." s t
        (match outcome.arrival with Some x -> string_of_int x | None -> "?")
        Journey.pp j
    | _ ->
      Printf.printf "  FAILED to match (Theorem 3 only promises success whp)\n";
      (match Foremost.distance (Foremost.run net s) t with
      | Some d -> Printf.printf "  (a foremost journey does exist, arrival %d)\n" d
      | None -> Printf.printf "  (no journey exists at all in this instance)\n"));
    0
  in
  let doc = "Run Algorithm 1 (the Expansion Process) on one sampled clique \
             instance." in
  Cmd.v (Cmd.info "expansion" ~doc)
    Term.(const run $ n_term $ c1_term $ c2_term $ pair_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* journey *)

let journey_cmd =
  let pair_term =
    let doc = "Source and target, e.g. --pair 0,5." in
    Arg.(value & opt (pair int int) (0, 1) & info [ "pair" ] ~doc)
  in
  let run family n lifetime r (s, t) seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    let res = Foremost.run net s in
    (match Foremost.journey_to net res t with
    | Some j ->
      Format.printf "foremost journey %d -> %d (arrival %s):@.  %a@." s t
        (match Foremost.distance res t with
        | Some d -> string_of_int d
        | None -> "?")
        Journey.pp j
    | None -> Printf.printf "no journey from %d to %d in this instance\n" s t);
    0
  in
  let doc = "Compute a foremost journey on one sampled instance." in
  Cmd.v (Cmd.info "journey" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ pair_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* taxonomy *)

let taxonomy_cmd =
  let pair_term =
    let doc = "Source and target, e.g. --pair 0,5." in
    Arg.(value & opt (pair int int) (0, 1) & info [ "pair" ] ~doc)
  in
  let run family n lifetime r (s, t) seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    Printf.printf "journey taxonomy %d -> %d on %s (n=%d, a=%d, r=%d):\n" s t
      (Family.to_string family) (Sgraph.Graph.n g) a r;
    let show name = function
      | Some x -> Printf.printf "  %-18s: %d\n" name x
      | None -> Printf.printf "  %-18s: -\n" name
    in
    show "foremost arrival" (Foremost.distance (Foremost.run net s) t);
    let fast = Fastest.run net s in
    show "fastest duration" (Fastest.duration fast t);
    (match Fastest.window fast t with
    | Some (dep, arr) -> Printf.printf "  %-18s: depart %d, arrive %d\n"
                           "fastest window" dep arr
    | None -> ());
    show "shortest hops" (Shortest.hops (Shortest.run net s) t);
    show "latest departure"
      (Reverse_foremost.latest_departure (Reverse_foremost.run net t) s);
    Format.printf "  %-18s: %a@." "arrival profile" Profile.pp
      (Profile.compute net ~source:s ~target:t);
    0
  in
  let doc = "Foremost / fastest / shortest / reverse-foremost journeys for \
             one pair on a sampled instance." in
  Cmd.v (Cmd.info "taxonomy" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ pair_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* centrality *)

let centrality_cmd =
  let top_term =
    let doc = "How many top vertices to list." in
    Arg.(value & opt int 5 & info [ "top" ] ~doc)
  in
  let run family n lifetime r top seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    let out = Centrality.out_closeness net in
    let order = Centrality.rank out in
    let broadcast = Centrality.broadcast_time net in
    Printf.printf
      "temporal centrality on %s (n=%d, a=%d, r=%d), top %d by out-closeness:\n"
      (Family.to_string family) (Sgraph.Graph.n g) a r top;
    Array.iteri
      (fun i v ->
        if i < top then
          Printf.printf "  #%d vertex %3d  closeness %.4f  broadcast %s\n"
            (i + 1) v out.(v)
            (if broadcast.(v) = max_int then "-" else string_of_int broadcast.(v)))
      order;
    let best, time = Centrality.best_broadcaster net in
    Printf.printf "best broadcaster: vertex %d (completes at %s)\n" best
      (if time = max_int then "-" else string_of_int time);
    0
  in
  let doc = "Rank vertices by temporal closeness and broadcast time on a \
             sampled instance." in
  Cmd.v (Cmd.info "centrality" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ top_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* disjoint *)

let disjoint_cmd =
  let pair_term =
    let doc = "Source and target, e.g. --pair 0,5." in
    Arg.(value & opt (pair int int) (0, 1) & info [ "pair" ] ~doc)
  in
  let menger_term =
    let doc = "Instead of sampling, analyse the fixed 6-vertex Menger-gap \
               instance." in
    Arg.(value & flag & info [ "menger" ] ~doc)
  in
  let run family n lifetime r (s, t) menger seed =
    let net, s, t =
      if menger then Disjoint.menger_gap_example ()
      else begin
        let rng = Rng.create seed in
        let g = Family.build family rng ~n in
        let a = lifetime_of (Sgraph.Graph.n g) lifetime in
        (Assignment.uniform_multi rng g ~a ~r, s, t)
      end
    in
    Printf.printf "disjoint journeys %d -> %d (n=%d):\n" s t (Tgraph.n net);
    Printf.printf "  max time-edge-disjoint : %d\n"
      (Disjoint.max_edge_disjoint net ~s ~t);
    if Tgraph.n net <= 10 then begin
      Printf.printf "  max vertex-disjoint    : %d\n"
        (Disjoint.max_vertex_disjoint_exhaustive net ~s ~t);
      let separator = Disjoint.min_vertex_separator_exhaustive net ~s ~t in
      Printf.printf "  min vertex separator   : %s\n"
        (if separator = max_int then "- (direct edge)" else string_of_int separator)
    end
    else
      Printf.printf "  (vertex quantities are exhaustive; skipped for n > 10)\n";
    0
  in
  let doc = "Count disjoint journeys and temporal separators (Menger \
             phenomena of Kempe et al.)." in
  Cmd.v (Cmd.info "disjoint" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ pair_term $ menger_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* export *)

let export_cmd =
  let format_term =
    let doc = "Output format: tnet (round-trippable text), dot (Graphviz) \
               or gexf (Gephi dynamic graph)." in
    Arg.(value
         & opt (enum [ ("tnet", `Tnet); ("dot", `Dot); ("gexf", `Gexf) ]) `Tnet
         & info [ "format"; "f" ] ~doc)
  in
  let output_term =
    let doc = "Write to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run family n lifetime r format output seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    let text =
      match format with
      | `Tnet -> Serial.to_string net
      | `Dot -> Serial.to_dot ~name:(Family.to_string family) net
      | `Gexf -> Serial.to_gexf net
    in
    (match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path);
    0
  in
  let doc = "Sample a random temporal network and export it (text or DOT)." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ format_term $ output_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* restless *)

let restless_cmd =
  let delta_term =
    let doc = "Waiting bound per intermediate vertex." in
    Arg.(value & opt int 2 & info [ "delta" ] ~doc)
  in
  let source_term =
    let doc = "Source vertex." in
    Arg.(value & opt int 0 & info [ "source"; "s" ] ~doc)
  in
  let run family n lifetime r delta source seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let gn = Sgraph.Graph.n g in
    let a = lifetime_of gn lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    let restless = Restless.run ~delta net source in
    let unrestricted = Foremost.run net source in
    Printf.printf
      "restless walks from %d on %s (n=%d, a=%d, r=%d, delta=%d):\n" source
      (Family.to_string family) gn a r delta;
    Printf.printf "  reachable (restless)     : %d/%d\n"
      (Restless.reachable_count restless) gn;
    Printf.printf "  reachable (unrestricted) : %d/%d\n"
      (Foremost.reachable_count unrestricted) gn;
    let slower = ref 0 and worst_gap = ref 0 in
    for v = 0 to gn - 1 do
      match (Restless.distance restless v, Foremost.distance unrestricted v) with
      | Some d1, Some d2 when d1 > d2 ->
        incr slower;
        if d1 - d2 > !worst_gap then worst_gap := d1 - d2
      | _ -> ()
    done;
    Printf.printf "  vertices delayed by it   : %d (worst delay %d)\n" !slower
      !worst_gap;
    0
  in
  let doc = "Earliest arrivals when a message may wait at most delta steps \
             per relay (restless temporal walks)." in
  Cmd.v (Cmd.info "restless" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ delta_term $ source_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* walk *)

let walk_cmd =
  let source_term =
    let doc = "Source vertex." in
    Arg.(value & opt int 0 & info [ "source"; "s" ] ~doc)
  in
  let run family n lifetime r source seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    let t = Walker.walk rng net ~source in
    Printf.printf "random walk from %d on %s (n=%d, a=%d, r=%d):\n" source
      (Family.to_string family) (Sgraph.Graph.n g) a r;
    Printf.printf "  visited : %d/%d   moves: %d/%d\n" t.visited
      (Sgraph.Graph.n g) t.moves a;
    (match t.cover_time with
    | Some c -> Printf.printf "  covered by step %d\n" c
    | None -> Printf.printf "  did not cover within the lifetime\n");
    let trail = Array.to_list (Array.sub t.positions 0 (Stdlib.min 25 (a + 1))) in
    Printf.printf "  trail   : %s%s\n"
      (String.concat " " (List.map string_of_int trail))
      (if a + 1 > 25 then " ..." else "");
    0
  in
  let doc = "Ride one random walk along the availability schedule." in
  Cmd.v (Cmd.info "walk" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ source_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* jam *)

let jam_cmd =
  let budget_term =
    let doc = "How many (edge, time) availabilities to cancel." in
    Arg.(value & opt int 16 & info [ "budget" ] ~doc)
  in
  let strategy_term =
    let doc = "Jammer: random, earliest, cut-vertex, greedy." in
    Arg.(value
         & opt
             (enum
                [ ("random", Adversary.Random_jam);
                  ("earliest", Adversary.Earliest_first);
                  ("cut-vertex", Adversary.Cut_vertex_focus);
                  ("greedy", Adversary.Greedy_damage) ])
             Adversary.Random_jam
         & info [ "strategy" ] ~doc)
  in
  let run family n lifetime r budget strategy seed =
    let rng = Rng.create seed in
    let g = Family.build family rng ~n in
    let a = lifetime_of (Sgraph.Graph.n g) lifetime in
    let net = Assignment.uniform_multi rng g ~a ~r in
    let outcome = Adversary.jam rng net ~budget ~strategy in
    Printf.printf "jamming %s on %s (n=%d, a=%d, r=%d, budget=%d):\n"
      (Adversary.strategy_name strategy)
      (Family.to_string family) (Sgraph.Graph.n g) a r budget;
    Printf.printf "  cancelled        : %d labels\n" outcome.cancelled;
    Printf.printf "  reachable pairs  : %d -> %d (%.0f%% survive)\n"
      outcome.reachable_before outcome.reachable_after
      (100.
      *. float_of_int outcome.reachable_after
      /. float_of_int (Stdlib.max 1 outcome.reachable_before));
    0
  in
  let doc = "Cancel availabilities adversarially and measure the damage." in
  Cmd.v (Cmd.info "jam" ~doc)
    Term.(const run $ family_term $ n_term $ lifetime_term $ r_term
          $ budget_term $ strategy_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let file_term =
    let doc = "Temporal network file (`export` format), or a contact trace \
               with $(b,--trace)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let trace_term =
    let doc = "Interpret the file as a contact trace: one 'time agent \
               agent' event per line." in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let run file trace =
    let loaded =
      if trace then Mobility.Trace.load file else Serial.of_file file
    in
    match loaded with
    | Error msg ->
      Printf.eprintf "cannot read %s: %s\n" file msg;
      1
    | Ok net ->
      let n = Tgraph.n net in
      Format.printf "%a@." Summary_t.pp (Summary_t.compute net);
      (match Lifetime.prefix_connectivity_time net with
      | Some k -> Printf.printf "prefix connects at: %d\n" k
      | None -> ());
      if n <= 20 then
        Printf.printf "largest mutual set: %d vertices\n"
          (Tcc.largest_mutual_clique_exhaustive net);
      if n <= 64 && Reachability.treach net then begin
        let result = Spanner.prune net in
        if result.removed = 0 then Printf.printf "labels are minimal\n"
        else
          Printf.printf "prunable to %d labels (-%d)\n" result.kept
            result.removed
      end;
      0
  in
  let doc = "Analyse a temporal network or contact trace stored in a file." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ file_term $ trace_term)

(* ------------------------------------------------------------------ *)
(* trace: offline analytics over JSONL trace files *)

let trace_file_term n docv =
  let doc = "Trace file (JSONL, written by $(b,run --trace))." in
  Arg.(required & pos n (some file) None & info [] ~docv ~doc)

(* Strict load: the first malformed line fails the whole command with
   file:line, so a truncated trace can never silently under-report. *)
let load_trace file =
  match Obs.Reader.read_file file with
  | Ok records -> Ok records
  | Error { Obs.Reader.line; message } ->
    Error (Printf.sprintf "%s:%d: %s" file line message)

let trace_summary_cmd =
  let run file =
    match load_trace file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok records ->
      print_string
        (Stats.Table.to_ascii
           (Obs.Export.span_table_of (Obs.Analysis.totals records)));
      0
  in
  let doc =
    "Aggregate a trace per span path and print the same table the run's \
     $(b,--metrics) flag would (strictly parsing every line)."
  in
  Cmd.v (Cmd.info "summary" ~doc) Term.(const run $ trace_file_term 0 "FILE")

let trace_flame_cmd =
  let output_term =
    let doc = "Write folded stacks to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run file output =
    match load_trace file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok records ->
      let emit oc =
        List.iter
          (fun (stack, self_ns) -> Printf.fprintf oc "%s %Ld\n" stack self_ns)
          (Obs.Analysis.folded records)
      in
      (match output with
      | None -> emit stdout
      | Some path ->
        let oc = open_out path in
        emit oc;
        close_out oc;
        Printf.printf "wrote %s\n" path);
      0
  in
  let doc =
    "Emit the trace as folded stacks ($(i,path;to;span self-ns), one per \
     line) for flamegraph.pl or speedscope."
  in
  Cmd.v (Cmd.info "flame" ~doc)
    Term.(const run $ trace_file_term 0 "FILE" $ output_term)

let trace_domains_cmd =
  let run file =
    match load_trace file with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok records -> (
      match Obs.Analysis.domain_stats records with
      | None ->
        Printf.eprintf "%s: empty trace\n" file;
        1
      | Some s ->
        let wall = Float.max 1. (Int64.to_float s.wall_ns) in
        let table =
          Stats.Table.create ~title:"Trace: domains"
            ~columns:[ "domain"; "spans"; "busy ms"; "util %" ]
        in
        List.iter
          (fun (row : Obs.Analysis.domain_row) ->
            Stats.Table.add_row table
              [
                Int row.domain;
                Int row.spans;
                Float (Obs.Clock.ns_to_ms row.busy_ns, 2);
                Float (100. *. Int64.to_float row.busy_ns /. wall, 1);
              ])
          s.rows;
        print_string (Stats.Table.to_ascii table);
        Printf.printf "wall: %.2f ms  distinct domains: %d\n"
          (Obs.Clock.ns_to_ms s.wall_ns)
          (List.length s.rows);
        Printf.printf "concurrency:";
        List.iter
          (fun (k, ns) ->
            Printf.printf " %d-busy %.1f%%" k
              (100. *. Int64.to_float ns /. wall))
          s.concurrency;
        print_newline ();
        0)
  in
  let doc =
    "Per-domain busy time, utilization against the trace's wall window, \
     and the concurrency profile (how long exactly k domains were busy) \
     of a $(b,-j N) trace."
  in
  Cmd.v (Cmd.info "domains" ~doc) Term.(const run $ trace_file_term 0 "FILE")

let trace_diff_cmd =
  let fail_above_term =
    let doc =
      "Exit non-zero if any span path's wall time regressed by more than \
       $(docv) percent (the CI regression gate)."
    in
    Arg.(value & opt (some float) None & info [ "fail-above" ] ~docv:"PCT" ~doc)
  in
  let min_ms_term =
    let doc = "Ignore paths below $(docv) total wall ms in both traces." in
    Arg.(value & opt float 0. & info [ "min-ms" ] ~docv:"MS" ~doc)
  in
  let run old_file new_file fail_above min_ms =
    match (load_trace old_file, load_trace new_file) with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      1
    | Ok old_records, Ok new_records ->
      let rows =
        Obs.Analysis.diff
          (Obs.Analysis.totals old_records)
          (Obs.Analysis.totals new_records)
      in
      let wide_enough (t : Obs.Span.totals option) =
        match t with
        | Some t -> Obs.Clock.ns_to_ms t.total_ns >= min_ms
        | None -> false
      in
      let rows =
        List.filter
          (fun (r : Obs.Analysis.diff_row) ->
            wide_enough r.old_t || wide_enough r.new_t)
          rows
      in
      let table =
        Stats.Table.create ~title:"Trace: diff"
          ~columns:
            [ "span"; "old ms"; "new ms"; "wall %"; "old words"; "new words";
              "alloc %" ]
      in
      let dash = Stats.Table.Str "-" in
      let ms = function
        | Some (t : Obs.Span.totals) ->
          Stats.Table.Float (Obs.Clock.ns_to_ms t.total_ns, 2)
        | None -> dash
      in
      let words = function
        | Some (t : Obs.Span.totals) ->
          Stats.Table.Float (t.minor_words +. t.major_words, 0)
        | None -> dash
      in
      let pct = function
        | Some p -> Stats.Table.Str (Printf.sprintf "%+.1f" p)
        | None -> dash
      in
      List.iter
        (fun (r : Obs.Analysis.diff_row) ->
          Stats.Table.add_row table
            [
              Str r.path; ms r.old_t; ms r.new_t; pct r.wall_pct;
              words r.old_t; words r.new_t; pct r.alloc_pct;
            ])
        rows;
      print_string (Stats.Table.to_ascii table);
      let worst = Obs.Analysis.worst_wall_pct rows in
      if worst > Float.neg_infinity then
        Printf.printf "worst wall regression: %+.1f%%\n" worst;
      (match fail_above with
      | Some limit when worst > limit ->
        Printf.eprintf
          "FAIL: worst wall regression %+.1f%% exceeds --fail-above %.1f%%\n"
          worst limit;
        1
      | _ -> 0)
  in
  let doc =
    "Per-span wall/alloc deltas between two traces, with a threshold exit \
     code for CI ($(b,--fail-above))."
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run $ trace_file_term 0 "OLD" $ trace_file_term 1 "NEW"
          $ fail_above_term $ min_ms_term)

let trace_cmd =
  let doc =
    "Analyse JSONL span traces written by $(b,run --trace): per-path \
     summaries, flamegraph folding, per-domain utilization, and a \
     regression-gating diff."
  in
  Cmd.group (Cmd.info "trace" ~doc)
    [ trace_summary_cmd; trace_flame_cmd; trace_domains_cmd; trace_diff_cmd ]

(* ------------------------------------------------------------------ *)
(* version *)

let version_cmd =
  let run () =
    Printf.printf "ephemeral 1.0.0\n";
    Printf.printf "code fingerprint : %s (%d source files)\n"
      (Store.Key.fingerprint ())
      (Store.Key.fingerprinted_sources ());
    Printf.printf "store format     : codec v%d (%s)\n" Store.Codec.format_version
      Store.Codec.magic;
    Printf.printf "backends         : %s (--backend on run; active: %s)\n"
      (String.concat ", " (List.map Sim.Backend.to_string Sim.Backend.all))
      (Sim.Backend.tag ());
    0
  in
  let doc = "Show the version and the build-time code fingerprint (the \
             fingerprint keys the result store, so it tells you why a \
             cache missed)." in
  Cmd.v (Cmd.info "version" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* store ls / show / gc *)

let age_string ~now time =
  let s = now -. time in
  if s < 0. then "future"
  else if s < 120. then Printf.sprintf "%.0fs" s
  else if s < 7200. then Printf.sprintf "%.0fm" (s /. 60.)
  else if s < 172800. then Printf.sprintf "%.1fh" (s /. 3600.)
  else Printf.sprintf "%.1fd" (s /. 86400.)

(* The live entries (newest per key), newest first — what ls and show
   operate on. *)
let live_entries store =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc (e : Store.Objects.entry) ->
      if Hashtbl.mem seen e.key then acc
      else begin
        Hashtbl.add seen e.key ();
        e :: acc
      end)
    []
    (List.rev (Store.Objects.entries store))

let store_ls_cmd =
  let run dir =
    let store = Store.Objects.open_ ~dir in
    let fp = Store.Key.fingerprint () in
    Printf.printf "store: %s\nfingerprint: %s (%d source files)\n" dir fp
      (Store.Key.fingerprinted_sources ());
    let live = live_entries store in
    if live = [] then print_endline "(empty)"
    else begin
      let now = Unix.gettimeofday () in
      Printf.printf "%-12s %-6s %-10s %-6s %-9s %8s %6s  %s\n" "key" "exp"
        "seed" "quick" "backend" "bytes" "age" "build";
      List.iter
        (fun (e : Store.Objects.entry) ->
          let field k = Option.value ~default:"-" (List.assoc_opt k e.meta) in
          let build =
            match List.assoc_opt "fingerprint" e.meta with
            | Some f when f = fp -> "current"
            | Some _ -> "stale"
            | None -> "?"
          in
          Printf.printf "%-12s %-6s %-10s %-6s %-9s %8d %6s  %s\n"
            (String.sub e.key 0 (Stdlib.min 12 (String.length e.key)))
            (field "exp") (field "seed") (field "quick") (field "backend")
            e.size (age_string ~now e.time) build)
        live
    end;
    0
  in
  let doc = "List cached outcomes (newest per key), flagging entries \
             written by a different build as stale." in
  Cmd.v (Cmd.info "ls" ~doc) Term.(const run $ store_dir_term)

let store_show_cmd =
  let what_term =
    let doc = "An experiment id (e.g. e1; combined with --seed/--quick) or \
               a cache-key prefix from $(b,store ls)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID_OR_KEY" ~doc)
  in
  let run dir what seed quick backend =
    Sim.Backend.set backend;
    let store = Store.Objects.open_ ~dir in
    match Sim.Experiments.find what with
    | Some exp -> (
      match Sim.Cache.get store exp ~seed ~quick with
      | Some outcome ->
        Sim.Report.print_outcome exp outcome;
        0
      | None ->
        Printf.eprintf
          "no cached outcome for %s (seed %d, quick %b, backend %s) under \
           this build\n"
          exp.id seed quick (Sim.Backend.tag ());
        1)
    | None -> (
      let matches =
        List.filter
          (fun (e : Store.Objects.entry) ->
            String.length what <= String.length e.key
            && String.sub e.key 0 (String.length what) = what)
          (live_entries store)
      in
      match matches with
      | [] ->
        Printf.eprintf "no experiment or cached key matches %S\n" what;
        1
      | _ :: _ :: _ ->
        Printf.eprintf "key prefix %S is ambiguous (%d matches)\n" what
          (List.length matches);
        1
      | [ entry ] -> (
        match Store.Objects.get store ~key:entry.key with
        | None ->
          Printf.eprintf "object for %s is missing or corrupt (quarantined)\n"
            entry.key;
          1
        | Some (bytes, _) -> (
          match Store.Codec.decode_outcome bytes with
          | Error msg ->
            Printf.eprintf "cannot decode %s: %s\n" entry.key msg;
            1
          | Ok c ->
            List.iter
              (fun (k, v) -> Printf.printf "%s: %s\n" k v)
              entry.meta;
            print_newline ();
            print_string (Sim.Outcome.render (Sim.Cache.of_codec c));
            0)))
  in
  let doc = "Render a cached outcome without running anything." in
  Cmd.v (Cmd.info "show" ~doc)
    Term.(const run $ store_dir_term $ what_term $ seed_term $ quick_term
          $ backend_term)

let store_gc_cmd =
  let max_bytes_term =
    let doc = "Keep at most $(docv) bytes of objects (newest first)." in
    Arg.(value & opt (some int) None & info [ "max-bytes" ] ~docv:"N" ~doc)
  in
  let max_age_term =
    let doc = "Drop entries older than $(docv) days." in
    Arg.(value & opt (some float) None & info [ "max-age-days" ] ~docv:"D" ~doc)
  in
  let run dir max_bytes max_age_days =
    let store = Store.Objects.open_ ~dir in
    let stats =
      Store.Gc.run ?max_bytes
        ?max_age_s:(Option.map (fun d -> d *. 86400.) max_age_days)
        store
    in
    Printf.printf
      "examined %d, kept %d (%d B), removed %d entries / %d objects (%d B)\n"
      stats.examined stats.kept stats.bytes_kept stats.removed_entries
      stats.removed_objects stats.bytes_removed;
    0
  in
  let doc = "Compact the store: drop superseded, oversized or overage \
             entries and delete unreferenced objects." in
  Cmd.v (Cmd.info "gc" ~doc)
    Term.(const run $ store_dir_term $ max_bytes_term $ max_age_term)

let store_cmd =
  let doc = "Inspect and maintain the result store." in
  Cmd.group (Cmd.info "store" ~doc) [ store_ls_cmd; store_show_cmd; store_gc_cmd ]

(* ------------------------------------------------------------------ *)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "ephemeral" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Ephemeral networks with random availability of \
         links: diameter and connectivity' (Akrida, Gasieniec, Mertzios, \
         Spirakis; SPAA 2014)"
  in
  let group =
    Cmd.group ~default info
      [ run_cmd; chaos_cmd; serve_cmd; query_cmd; list_cmd; diameter_cmd;
        reach_cmd; min_r_cmd; flood_cmd;
        expansion_cmd; journey_cmd; taxonomy_cmd; centrality_cmd;
        disjoint_cmd; export_cmd; analyze_cmd; restless_cmd; walk_cmd;
        jam_cmd; store_cmd; trace_cmd; version_cmd ]
  in
  exit (Cmd.eval' group)
