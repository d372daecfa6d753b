(* Benchmark harness.

   Part 2 measures the sequential-vs-parallel wall time of E1 on the
   domain pool and checks the outputs are byte-identical; sections
   2b-2h time the result store, the fault soak, the kernels, the
   backends and the serving path.  The experiment tables themselves are
   rendered by `ephemeral run`.

   Run with:  dune exec bench/main.exe            (full scale)
              dune exec bench/main.exe -- --quick (reduced scale)
              dune exec bench/main.exe -- --no-speedup / --only kernel
              dune exec bench/main.exe -- --jobs 4
              dune exec bench/main.exe -- --metrics --trace out.jsonl

   Part 2c is the fault soak: E1 under an armed injection plan with
   retries, byte-compared against the fault-free render — the
   determinism-under-faults contract, timed so the retry overhead is
   visible. *)

module Rng = Prng.Rng
open Temporal

(* ------------------------------------------------------------------ *)
(* Options.  One pass over argv; anything unrecognized is a usage
   error, so a typo ("--no-speeup") fails loudly instead of silently
   running the full suite. *)

type opts = {
  mutable quick : bool;
  mutable no_speedup : bool;
  mutable no_store : bool;
  mutable no_faults : bool;
  mutable no_kernel : bool;
  mutable no_batch : bool;
  mutable no_implicit : bool;
  mutable no_serve : bool;
  mutable no_serve_sharded : bool;
  mutable metrics : bool;
  mutable trace : string option;
  mutable jobs : int option;
  mutable only : string list;
}

(* --only names, in execution order.  Each maps to the corresponding
   --no-* flag; selecting any section turns every other one off. *)
let sections =
  [
    "speedup"; "store"; "faults"; "implicit"; "batch"; "serve";
    "serve-sharded"; "kernel";
  ]

let usage_lines =
  [
    "usage: bench [options]";
    "";
    "  --quick        reduced scale (smaller sizes, shorter quotas)";
    "  --no-speedup   skip part 2 (E1 sequential-vs-parallel timing)";
    "  --no-store     skip part 2b (E1 cold vs warm result store)";
    "  --no-faults    skip part 2c (E1 fault soak: injected faults + retries)";
    "  --no-kernel    skip part 2d (flat kernel vs seed baseline, writes";
    "                 BENCH_clique.json)";
    "  --no-batch     skip part 2e (batch-kernel: scalar vs bit-parallel";
    "                 all-pairs diameter)";
    "  --no-implicit  skip part 2f (dense vs implicit backend: trial time";
    "                 and peak RSS on the same derived instances)";
    "  --no-serve     skip part 2g (ephemeral serve: sustained qps and";
    "                 tail latency, dense vs implicit)";
    "  --no-serve-sharded";
    "                 skip part 2h (sharded serve: qps scale-out at";
    "                 1/2/4 shard workers, real binary, oracle-checked)";
    "  --only S       run section S alone (repeatable; speedup, store,";
    "                 faults, implicit, batch, serve, serve-sharded,";
    "                 kernel).  BENCH_clique.json is written by the";
    "                 kernel section, so pair data sections with it if the";
    "                 JSON is wanted.";
    "  --jobs N, -j N worker domains for trial execution (default: 4";
    "                 for the speedup run, EPHEMERAL_JOBS or the";
    "                 recommended domain count elsewhere)";
    "  --metrics      collect telemetry and print an end-of-run summary";
    "  --trace FILE   write completed spans as JSONL to FILE";
    "  --help         show this message";
  ]

let usage_error msg =
  Printf.eprintf "bench: %s\n" msg;
  List.iter (Printf.eprintf "%s\n") usage_lines;
  exit 2

let parse_args () =
  let o =
    {
      quick = false;
      no_speedup = false;
      no_store = false;
      no_faults = false;
      no_kernel = false;
      no_batch = false;
      no_implicit = false;
      no_serve = false;
      no_serve_sharded = false;
      metrics = false;
      trace = None;
      jobs = None;
      only = [];
    }
  in
  let argv = Sys.argv in
  let n = Array.length argv in
  let value flag i =
    if i + 1 >= n then usage_error (Printf.sprintf "%s needs a value" flag)
    else argv.(i + 1)
  in
  let int_value flag i =
    match int_of_string_opt (value flag i) with
    | Some v when v >= 1 -> v
    | Some _ -> usage_error (Printf.sprintf "%s must be >= 1" flag)
    | None -> usage_error (Printf.sprintf "%s needs an integer" flag)
  in
  let rec go i =
    if i < n then
      match argv.(i) with
      | "--quick" -> o.quick <- true; go (i + 1)
      | "--no-speedup" -> o.no_speedup <- true; go (i + 1)
      | "--no-store" -> o.no_store <- true; go (i + 1)
      | "--no-faults" -> o.no_faults <- true; go (i + 1)
      | "--no-kernel" -> o.no_kernel <- true; go (i + 1)
      | "--no-batch" -> o.no_batch <- true; go (i + 1)
      | "--no-implicit" -> o.no_implicit <- true; go (i + 1)
      | "--no-serve" -> o.no_serve <- true; go (i + 1)
      | "--no-serve-sharded" -> o.no_serve_sharded <- true; go (i + 1)
      | "--only" ->
        let s = value "--only" i in
        if not (List.mem s sections) then
          usage_error
            (Printf.sprintf "--only %S: expected one of %s" s
               (String.concat ", " sections));
        o.only <- s :: o.only;
        go (i + 2)
      | "--metrics" -> o.metrics <- true; go (i + 1)
      | "--trace" -> o.trace <- Some (value "--trace" i); go (i + 2)
      | ("--jobs" | "-j") as flag -> o.jobs <- Some (int_value flag i); go (i + 2)
      | "--help" | "-h" ->
        List.iter print_endline usage_lines;
        exit 0
      | arg -> usage_error (Printf.sprintf "unknown option %S" arg)
  in
  go 1;
  (if o.only <> [] then
     let off s = not (List.mem s o.only) in
     o.no_speedup <- off "speedup";
     o.no_store <- off "store";
     o.no_faults <- off "faults";
     o.no_implicit <- off "implicit";
     o.no_batch <- off "batch";
     o.no_serve <- off "serve";
     o.no_serve_sharded <- off "serve-sharded";
     o.no_kernel <- off "kernel");
  o

let opts = parse_args ()
let quick = opts.quick

(* ------------------------------------------------------------------ *)
(* Part 2: sequential-vs-parallel speedup on E1 (quick scale).

   Runs the same experiment at --jobs 1 and at the requested job count,
   checks the rendered outcomes byte for byte (the determinism
   contract), and reports the wall-time ratio.  Speedup above 1 needs
   actual cores: on a single-core host the parallel leg only adds
   scheduling overhead, and the printed ratio will honestly say so. *)

let speedup_jobs = match opts.jobs with Some j -> j | None -> 4

let run_speedup () =
  print_endline
    "=================================================================";
  Printf.printf " E1 --quick: sequential vs parallel (%d domains, %d available)\n"
    speedup_jobs (Domain.recommended_domain_count ());
  print_endline
    "=================================================================";
  match Sim.Experiments.find "e1" with
  | None -> print_endline "e1 not registered; skipping"
  | Some e1 ->
    let restore = Exec.Config.jobs () in
    let time_run jobs =
      Exec.Pool.set_jobs jobs;
      let t0 = Unix.gettimeofday () in
      let outcome = e1.run ~quick:true ~seed:Sim.Experiments.default_seed in
      let dt = Unix.gettimeofday () -. t0 in
      (Sim.Outcome.render outcome, dt)
    in
    ignore (time_run 1);  (* warm-up: page in code and the allocator *)
    let seq_render, seq_t = time_run 1 in
    let par_render, par_t = time_run speedup_jobs in
    Printf.printf "  sequential (-j 1) : %7.3f s\n" seq_t;
    Printf.printf "  parallel   (-j %d) : %7.3f s\n" speedup_jobs par_t;
    Printf.printf "  speedup           : %5.2fx\n" (seq_t /. par_t);
    Printf.printf "  outputs identical : %s\n"
      (if String.equal seq_render par_render then "yes" else "NO (BUG)");
    Exec.Pool.set_jobs restore;
    print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2b: cold vs warm result store on E1 (quick scale).

   Cold = compute + encode + publish; warm = read + verify + decode.
   The ratio is what `ephemeral run --cache` buys on a repeat run, and
   the byte check is the store's correctness claim: a hit renders
   identically to the run it replaced. *)

let run_store_bench () =
  print_endline
    "=================================================================";
  print_endline " E1 --quick: cold vs warm result store";
  print_endline
    "=================================================================";
  match Sim.Experiments.find "e1" with
  | None -> print_endline "e1 not registered; skipping"
  | Some e1 ->
    let dir = Filename.temp_file "ephemeral-bench" ".store" in
    Sys.remove dir;
    let store = Store.Objects.open_ ~dir in
    let seed = Sim.Experiments.default_seed in
    let t0 = Unix.gettimeofday () in
    let outcome = e1.run ~quick:true ~seed in
    Sim.Cache.put store e1 ~seed ~quick:true outcome;
    let cold_t = Unix.gettimeofday () -. t0 in
    let t1 = Unix.gettimeofday () in
    let cached = Sim.Cache.get store e1 ~seed ~quick:true in
    let warm_t = Unix.gettimeofday () -. t1 in
    (match cached with
    | None -> print_endline "  warm read MISSED (BUG)"
    | Some c ->
      Printf.printf "  cold (run+publish) : %9.4f s\n" cold_t;
      Printf.printf "  warm (read+decode) : %9.4f s  (%.0fx)\n" warm_t
        (cold_t /. Float.max 1e-9 warm_t);
      Printf.printf "  outputs identical  : %s\n"
        (if String.equal (Sim.Outcome.render outcome) (Sim.Outcome.render c)
         then "yes"
         else "NO (BUG)"));
    Store.Fsio.remove_tree dir;
    print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2c: fault soak on E1 (quick scale).

   Runs E1 fault-free, then again with an armed injection plan
   (retryable trial faults, delays, poisoned workers) under supervised
   retries, and byte-compares the renders.  This is the robustness
   contract measured: retries replay each trial from a copy of its
   pristine pre-split stream, so injected faults must cost wall time
   only, never a single differing byte. *)

let run_fault_soak () =
  print_endline
    "=================================================================";
  print_endline " E1 --quick: fault soak (injected faults + retries vs clean)";
  print_endline
    "=================================================================";
  match Sim.Experiments.find "e1" with
  | None -> print_endline "e1 not registered; skipping"
  | Some e1 ->
    let time_run () =
      let t0 = Unix.gettimeofday () in
      let outcome = e1.run ~quick:true ~seed:Sim.Experiments.default_seed in
      let dt = Unix.gettimeofday () -. t0 in
      (Sim.Outcome.render outcome, dt)
    in
    let clean_render, clean_t = time_run () in
    let spec = "seed=42,trial=0.1,delay=0.05,delay-ms=1,poison=0.3" in
    let plan =
      match Fault.Spec.parse spec with
      | Ok plan -> plan
      | Error msg -> failwith ("bench fault spec: " ^ msg)
    in
    Fault.Inject.arm plan;
    Sim.Supervise.configure
      {
        Sim.Supervise.max_retries = 5;
        trial_timeout = None;
        run_deadline = None;
        keep_going = false;
      };
    let fault_render, fault_t = time_run () in
    Fault.Inject.disarm ();
    Sim.Supervise.configure Sim.Supervise.default;
    let count name = Obs.Metrics.count (Obs.Metrics.counter name) in
    Printf.printf "  plan               : %s\n" spec;
    Printf.printf "  clean run          : %7.3f s\n" clean_t;
    Printf.printf "  faulted run        : %7.3f s  (%.2fx)\n" fault_t
      (fault_t /. Float.max 1e-9 clean_t);
    Printf.printf "  faults injected    : %d\n" (count "faults.injected");
    Printf.printf "  trials retried     : %d\n" (count "trials.retried");
    Printf.printf "  workers poisoned   : %d\n" (count "pool.workers_poisoned");
    Printf.printf "  outputs identical  : %s\n"
      (if String.equal clean_render fault_render then "yes" else "NO (BUG)");
    print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2e (run before 2d so its numbers land in BENCH_clique.json):
   bit-parallel batch kernel vs per-source scalar sweeps.

   One fixed normalized-uniform clique instance per size, all-pairs
   temporal diameter both ways: Distance.instance_diameter_scalar does n
   foremost sweeps, Distance.instance_diameter does ceil(n/W) batched
   ones over the same stream.  Same instance in both legs, so the
   diameters must be equal — the agreement bit is the bench's oracle —
   and the ratio isolates the word-parallel win itself. *)

type batch_point = {
  bp_n : int;
  bp_scalar_ns : float;
  bp_batch_ns : float;
  bp_speedup : float;
  bp_agree : bool;
}

let batch_points : batch_point list ref = ref []
let batch_sizes () = if quick then [ 256; 512 ] else [ 512; 2048; 8192 ]

(* Mean ns and allocated bytes per call over [trials] calls (shared by
   parts 2e and 2d). *)
let measure ~trials f =
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let last = ref None in
  for _ = 1 to trials do
    last := f ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let bytes = Gc.allocated_bytes () -. bytes0 in
  ( !last,
    dt /. float_of_int trials *. 1e9,
    bytes /. float_of_int trials )

let run_batch_bench () =
  print_endline
    "=================================================================";
  Printf.printf
    " Batch kernel: scalar vs bit-parallel all-pairs TD (W = %d lanes)\n"
    Batch.lane_width;
  print_endline
    "=================================================================";
  List.iter
    (fun n ->
      let g = Sgraph.Gen.clique Directed n in
      let net = Assignment.normalized_uniform (Rng.create 211) g in
      (* The scalar leg repeats n sweeps per run, so keep its trial
         count low at the big sizes; the batched leg is cheap enough to
         average a few runs everywhere. *)
      let scalar_trials = if n >= 2048 then 1 else if quick then 2 else 3 in
      let batch_trials = if quick then 2 else 3 in
      ignore (Distance.instance_diameter net);  (* warm-up sizes the lane workspace *)
      let batch_out, batch_ns, _ =
        measure ~trials:batch_trials (fun () -> Distance.instance_diameter net)
      in
      let scalar_out, scalar_ns, _ =
        measure ~trials:scalar_trials (fun () ->
            Distance.instance_diameter_scalar net)
      in
      let agree = batch_out = scalar_out in
      let speedup = scalar_ns /. Float.max 1. batch_ns in
      Printf.printf
        "  n=%5d  scalar %12.0f ns/run  batched %12.0f ns/run  %6.2fx  agree: %s\n"
        n scalar_ns batch_ns speedup
        (if agree then "yes" else "NO (BUG)");
      batch_points :=
        {
          bp_n = n;
          bp_scalar_ns = scalar_ns;
          bp_batch_ns = batch_ns;
          bp_speedup = speedup;
          bp_agree = agree;
        }
        :: !batch_points)
    (batch_sizes ());
  batch_points := List.rev !batch_points;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2f (also before 2d, for the same reason): dense vs implicit
   backend on the E1 trial pipeline.

   One trial = realise a derived normalized-uniform directed-clique
   instance from a fresh 64-bit seed and compute its exact all-pairs
   temporal diameter on the arithmetic clique, the topology both legs
   share.  The implicit leg keeps the instance lazy (labels rolled on
   demand behind the prefix stream); the dense leg materializes the
   same instance (stored label array, counting-sorted stream) first.
   Identical seeds per trial, so the diameters must agree — the
   backend equivalence oracle, run as a bench.

   Peak RSS comes from /proc/self/status VmHWM, which is a monotone
   high-water mark for the whole process: the implicit leg therefore
   runs FIRST, so its reading bounds the implicit working set, and
   the dense leg's (higher) reading shows what materialization adds
   on top.  On hosts without procfs both read 0 and only the timing
   rows are meaningful. *)

type backend_point = {
  ib_n : int;
  ib_dense_ns : float;
  ib_implicit_ns : float;
  ib_ratio : float;
  ib_agree : bool;
  ib_implicit_hwm_kb : int;
  ib_dense_hwm_kb : int;
}

let backend_points : backend_point list ref = ref []
let backend_sizes () = if quick then [ 512; 1024 ] else [ 1024; 2048; 4096 ]

let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          try Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                Fun.id
          with Scanf.Scan_failure _ | Failure _ -> 0
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let run_implicit_bench () =
  print_endline
    "=================================================================";
  print_endline
    " Backend: dense (materialized) vs implicit (derived labels), same seeds";
  print_endline
    "=================================================================";
  List.iter
    (fun n ->
      let trials = if quick then 2 else 3 in
      let seed = 409 in
      let impl_out, impl_ns, _ =
        measure ~trials (fun () ->
            let rng = Rng.create seed in
            let g = Sgraph.Gen.clique Directed n in
            Distance.instance_diameter
              (Assignment.uniform_single_implicit rng g ~a:n))
      in
      let impl_hwm = peak_rss_kb () in
      let dense_out, dense_ns, _ =
        measure ~trials (fun () ->
            let rng = Rng.create seed in
            let g = Sgraph.Gen.clique Directed n in
            Distance.instance_diameter
              (Tgraph.materialize
                 (Assignment.uniform_single_implicit rng g ~a:n)))
      in
      let dense_hwm = peak_rss_kb () in
      let agree = impl_out = dense_out in
      let ratio = dense_ns /. Float.max 1. impl_ns in
      Printf.printf
        "  n=%5d  dense %12.0f ns/trial  implicit %12.0f ns/trial  %6.2fx  \
         agree: %s\n"
        n dense_ns impl_ns ratio
        (if agree then "yes" else "NO (BUG)");
      Printf.printf
        "           peak RSS after implicit leg %d KiB, after dense leg %d KiB\n"
        impl_hwm dense_hwm;
      backend_points :=
        {
          ib_n = n;
          ib_dense_ns = dense_ns;
          ib_implicit_ns = impl_ns;
          ib_ratio = ratio;
          ib_agree = agree;
          ib_implicit_hwm_kb = impl_hwm;
          ib_dense_hwm_kb = dense_hwm;
        }
        :: !backend_points)
    (backend_sizes ());
  backend_points := List.rev !backend_points;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2g: [ephemeral serve] sustained throughput (dense vs implicit).

   An in-process server (Server.run_background) over a Unix socket on
   an n=1024 clique corpus, hammered by concurrent blocking clients
   issuing foremost queries with rotating sources.  The row cache is
   on (the service default), so past the first rotation this measures
   the serving path — framing, admission, dispatch, cache readout —
   which is exactly what a deployment sustains; p50/p99 come from the
   full per-query latency population.  Results ride along in
   BENCH_clique.json under "serve". *)

type serve_point = {
  sv_backend : string;
  sv_queries : int;
  sv_qps : float;
  sv_p50_ms : float;
  sv_p99_ms : float;
}

let serve_points : serve_point list ref = ref []

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let run_serve_bench () =
  print_endline
    "=================================================================";
  let n = if quick then 256 else 1024 in
  let clients = 4 and per_client = if quick then 100 else 400 in
  Printf.printf
    " ephemeral serve: sustained qps (clique n=%d, %d clients x %d queries)\n"
    n clients per_client;
  print_endline
    "=================================================================";
  List.iter
    (fun backend ->
      let corpus =
        Serve.Corpus.load ~backend
          [ Printf.sprintf "id=clq,family=clique,n=%d,a=%d,r=1,seed=7" n n ]
      in
      let dir = Filename.temp_file "ephemeral-bench" ".serve" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let address = Serve.Server.Unix_path (Filename.concat dir "srv.sock") in
      let stop =
        Serve.Server.run_background
          ~config:{ Serve.Server.default_config with Serve.Server.address }
          ~engine:{ Serve.Engine.default_config with Serve.Engine.queue_max = 256 }
          corpus
      in
      let latencies = Array.make (clients * per_client) 0. in
      let client_loop c =
        match Serve.Client.connect ~timeout_s:10. address with
        | Error m -> failwith ("serve bench: connect: " ^ m)
        | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Serve.Client.close conn)
            (fun () ->
              for i = 0 to per_client - 1 do
                let source = (c + (i * clients)) mod n in
                let req =
                  Serve.Proto.Foremost
                    {
                      Serve.Proto.instance = "clq";
                      source;
                      target = (source + 1) mod n;
                      deadline_ms = 0;
                    }
                in
                let t0 = Unix.gettimeofday () in
                (match Serve.Client.call ~timeout_s:10. conn req with
                | Ok (Serve.Proto.Ok_value _) -> ()
                | Ok r ->
                  failwith
                    ("serve bench: unexpected reply "
                    ^ Serve.Proto.render_response r)
                | Error m -> failwith ("serve bench: call: " ^ m));
                latencies.((c * per_client) + i) <-
                  (Unix.gettimeofday () -. t0) *. 1e3
              done)
      in
      let t0 = Unix.gettimeofday () in
      let threads = List.init clients (fun c -> Thread.create client_loop c) in
      List.iter Thread.join threads;
      let wall_s = Unix.gettimeofday () -. t0 in
      stop ();
      Store.Fsio.remove_tree dir;
      let sorted = Array.copy latencies in
      Array.sort compare sorted;
      let queries = clients * per_client in
      let qps = float_of_int queries /. Float.max 1e-9 wall_s in
      let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
      Printf.printf
        "  %-8s : %6.0f q/s   p50 %6.3f ms   p99 %6.3f ms   (%d queries)\n"
        (Sim.Backend.to_string backend)
        qps p50 p99 queries;
      serve_points :=
        {
          sv_backend = Sim.Backend.to_string backend;
          sv_queries = queries;
          sv_qps = qps;
          sv_p50_ms = p50;
          sv_p99_ms = p99;
        }
        :: !serve_points)
    [ Sim.Backend.Dense; Sim.Backend.Implicit ];
  serve_points := List.rev !serve_points;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2h: sharded serve scale-out (the real binary, 1/2/4 shards).

   Spawns `ephemeral serve --shards S` — the actual CLI, router and
   shard workers as separate OS processes — over an 8-instance clique
   corpus with a cold result store, and hammers it with concurrent
   clients whose foremost queries rotate across instances and sources.
   Every reply is checked against an in-process oracle over the
   identical corpus, so a routing bug (a query answered by a shard
   that does not own the instance) fails loudly, not silently.

   What scale-out is available depends on the host: shard processes
   overlap per-query compute only when there are physical cores to run
   them on, and overlap durable-publish fsync waits regardless.  The
   host's core count is recorded in the JSON next to the measured
   points precisely so a reader (or CI) can tell "sharding is broken"
   apart from "this box has one core". *)

type sharded_point = {
  sh_shards : int;
  sh_queries : int;
  sh_qps : float;
  sh_p50_ms : float;
  sh_p99_ms : float;
  sh_ok : bool;
}

let sharded_points : sharded_point list ref = ref []
let host_cores = Domain.recommended_domain_count ()

let serve_exe () =
  match Sys.getenv_opt "EPHEMERAL_EXE" with
  | Some p when Sys.file_exists p -> Some p
  | _ ->
    let cand =
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/main.exe"
    in
    if Sys.file_exists cand then Some cand else None

let run_serve_sharded_bench () =
  print_endline
    "=================================================================";
  (* The regime where sharding pays: a COLD store-backed corpus.  Every
     query hits a distinct (instance, source) pair, so each one is
     computed once and durably published — object write + fsync +
     manifest append — before the dispatch cycle moves on.  One process
     runs one cycle at a time, so publishes serialize; shard workers
     overlap those device waits (and, on multi-core hosts, the compute
     too).
     This is exactly the first pass of `serve --store` over a corpus,
     populating the persistent row cache under live traffic.  The
     instance ids c0..c7 hash 2-per-shard at 4 shards (hence 4-per at
     2), so ownership is balanced and no shard caps the scale-out. *)
  let n = 256 and instances = 8 in
  let clients = 32 and per_client = if quick then 25 else 64 in
  let sources_per_inst = clients * per_client / instances in
  Printf.printf
    " ephemeral serve --shards: cold-store qps scale-out (%d implicit \
     clique\n\
    \ instances n=%d, %d clients x %d one-shot queries, -j 1 per shard)\n"
    instances n clients per_client;
  print_endline
    "=================================================================";
  match serve_exe () with
  | None ->
    print_endline
      "  bin/main.exe not found next to the bench (set EPHEMERAL_EXE); \
       skipping";
    print_newline ()
  | Some exe ->
    let spec i =
      Printf.sprintf "id=c%d,family=clique,n=%d,a=%d,r=1,seed=%d" i n n (7 + i)
    in
    let spec_lines = List.init instances spec in
    (* The oracle: the same corpus, built in-process, arrival rows for
       the sources the clients will use. *)
    let oracle =
      Array.of_list
        (List.map
           (fun line ->
             match
               Serve.Corpus.available
                 (Serve.Corpus.load ~backend:Sim.Backend.Implicit [ line ])
             with
             | [ (_, net) ] ->
               Array.init sources_per_inst (fun s ->
                   Array.sub
                     (Temporal.Foremost.arrivals_borrowed net s)
                     0 n)
             | _ -> failwith "sharded bench: oracle corpus failed to load")
           spec_lines)
    in
    List.iter
      (fun shards ->
        let dir = Filename.temp_file "ephemeral-bench" ".sharded" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        let socket = Filename.concat dir "srv.sock" in
        (* Fresh store per leg: every leg starts cold and publishes the
           same row set, so the shard counts do identical work. *)
        let args =
          [ "serve"; "--socket"; socket; "--backend"; "implicit";
            "--queue-max"; "128"; "--jobs"; "1";
            "--store"; Filename.concat dir "store";
            "--shards"; string_of_int shards ]
          @ List.concat_map (fun s -> [ "--instance"; s ]) spec_lines
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process exe
            (Array.of_list (exe :: args))
            Unix.stdin devnull Unix.stderr
        in
        Unix.close devnull;
        (* Readiness: the router binds its socket only once every shard
           answered PING, so a successful PING here means fully up. *)
        let address = Serve.Server.Unix_path socket in
        let deadline = Unix.gettimeofday () +. 30. in
        let rec await () =
          if Unix.gettimeofday () > deadline then
            failwith "sharded bench: server never became ready"
          else
            match Serve.Client.connect ~timeout_s:0.2 address with
            | Ok c ->
              let r = Serve.Client.call ~timeout_s:1. c Serve.Proto.Ping in
              Serve.Client.close c;
              (match r with
              | Ok Serve.Proto.Ok_empty -> ()
              | _ -> Unix.sleepf 0.02; await ())
            | Error _ -> Unix.sleepf 0.02; await ()
        in
        await ();
        let latencies = Array.make (clients * per_client) 0. in
        let mismatches = Atomic.make 0 in
        let client_loop c =
          match Serve.Client.connect ~timeout_s:10. address with
          | Error m -> failwith ("sharded bench: connect: " ^ m)
          | Ok conn ->
            Fun.protect
              ~finally:(fun () -> Serve.Client.close conn)
              (fun () ->
                for i = 0 to per_client - 1 do
                  (* Global pair index: every query in the run targets a
                     distinct (instance, source), so nothing is served
                     from a warm cache or a prior publish. *)
                  let p = (c * per_client) + i in
                  let inst = p mod instances in
                  let source = p / instances in
                  let target = ((source * 7) + 3) mod n in
                  let req =
                    Serve.Proto.Foremost
                      {
                        Serve.Proto.instance = Printf.sprintf "c%d" inst;
                        source;
                        target;
                        deadline_ms = 0;
                      }
                  in
                  let expected =
                    let a = oracle.(inst).(source).(target) in
                    if a = max_int then None else Some a
                  in
                  let t0 = Unix.gettimeofday () in
                  (match Serve.Client.call ~timeout_s:30. conn req with
                  | Ok (Serve.Proto.Ok_value v) ->
                    if v <> expected then Atomic.incr mismatches
                  | Ok _ | Error _ -> Atomic.incr mismatches);
                  latencies.((c * per_client) + i) <-
                    (Unix.gettimeofday () -. t0) *. 1e3
                done)
        in
        let t0 = Unix.gettimeofday () in
        let threads =
          List.init clients (fun c -> Thread.create client_loop c)
        in
        List.iter Thread.join threads;
        let wall_s = Unix.gettimeofday () -. t0 in
        Unix.kill pid Sys.sigterm;
        let _, status = Unix.waitpid [] pid in
        Store.Fsio.remove_tree dir;
        (match status with
        | Unix.WEXITED 0 -> ()
        | _ -> Printf.printf "  WARNING: server at %d shards exited dirty\n"
                 shards);
        let sorted = Array.copy latencies in
        Array.sort compare sorted;
        let queries = clients * per_client in
        let qps = float_of_int queries /. Float.max 1e-9 wall_s in
        let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
        let ok = Atomic.get mismatches = 0 in
        Printf.printf
          "  shards=%d : %6.0f q/s   p50 %6.3f ms   p99 %6.3f ms   replies \
           ok: %s\n"
          shards qps p50 p99
          (if ok then "yes" else "NO (BUG)");
        sharded_points :=
          {
            sh_shards = shards;
            sh_queries = queries;
            sh_qps = qps;
            sh_p50_ms = p50;
            sh_p99_ms = p99;
            sh_ok = ok;
          }
          :: !sharded_points)
      [ 1; 2; 4 ];
    sharded_points := List.rev !sharded_points;
    (match !sharded_points with
    | [ one; _; four ] when one.sh_qps > 0. ->
      Printf.printf "  scale-out 4/1 shards: %.2fx (host cores: %d)\n"
        (four.sh_qps /. one.sh_qps)
        host_cores;
      if host_cores < 4 then
        Printf.printf
          "  note: %d-core host — shards can only overlap durability \
           waits,\n\
          \  not compute; expect near-linear scale-out on >= 4 cores\n"
          host_cores
    | _ -> ());
    print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2d: flat kernel vs seed baseline on the E1 clique pipeline.

   One trial = draw a normalized uniform assignment on the directed
   clique, build the temporal network, compute the all-pairs temporal
   diameter.  The legacy leg replays the seed implementations
   (Legacy_kernel: cons-list generator, boxed tuple adjacency,
   comparator-sorted stream with permutation copies, per-source
   allocating sweeps); the flat leg is the live library (trusted-array
   generator, counting sort, CSR crossings, per-domain workspaces).
   Both legs draw from identically seeded RNGs, so the diameters must
   agree trial for trial — a built-in equivalence oracle.

   Results land in BENCH_clique.json (machine-readable: ns/op, bytes
   allocated per op, speedup) for the CI perf-smoke job. *)

let kernel_n = 512
let kernel_trials () = if quick then 3 else 10

let run_kernel_bench () =
  print_endline
    "=================================================================";
  Printf.printf
    " E1 kernel: flat core vs seed baseline (clique n=%d, %d trials)\n"
    kernel_n (kernel_trials ());
  print_endline
    "=================================================================";
  let trials = kernel_trials () in
  let seed = 97 in
  let legacy_g = Legacy_kernel.clique kernel_n in
  let flat_g = Sgraph.Gen.clique Directed kernel_n in
  (* Warm-up: fault in code paths and size the workspace. *)
  ignore (Legacy_kernel.trial (Rng.create seed) legacy_g);
  ignore
    (Distance.instance_diameter
       (Assignment.normalized_uniform (Rng.create seed) flat_g));
  let legacy_rng = Rng.create seed and flat_rng = Rng.create seed in
  let legacy_out, legacy_ns, legacy_bytes =
    measure ~trials (fun () -> Legacy_kernel.trial legacy_rng legacy_g)
  in
  let flat_out, flat_ns, flat_bytes =
    measure ~trials (fun () ->
        Distance.instance_diameter
          (Assignment.normalized_uniform flat_rng flat_g))
  in
  let agree = legacy_out = flat_out in
  let speedup = legacy_ns /. Float.max 1. flat_ns in
  Printf.printf "  legacy (seed)  : %12.0f ns/trial  %12.0f bytes/trial\n"
    legacy_ns legacy_bytes;
  Printf.printf "  flat kernel    : %12.0f ns/trial  %12.0f bytes/trial\n"
    flat_ns flat_bytes;
  Printf.printf "  speedup        : %5.2fx   alloc ratio: %5.2fx\n" speedup
    (legacy_bytes /. Float.max 1. flat_bytes);
  Printf.printf "  diameters agree: %s\n" (if agree then "yes" else "NO (BUG)");
  let path = "BENCH_clique.json" in
  let oc = open_out path in
  (* Part 2e's scalar-vs-batched points ride along in a "batch" array
     (empty under --no-batch), one object per size. *)
  let batch_json =
    match !batch_points with
    | [] -> "[]"
    | points ->
      "[\n"
      ^ String.concat ",\n"
          (List.map
             (fun p ->
               Printf.sprintf
                 "    { \"n\": %d, \"scalar_ns_per_run\": %.0f, \
                  \"batch_ns_per_run\": %.0f, \"speedup\": %.2f, \
                  \"agree\": %b }"
                 p.bp_n p.bp_scalar_ns p.bp_batch_ns p.bp_speedup p.bp_agree)
             points)
      ^ "\n  ]"
  in
  (* Part 2g's serving-path points land in a "serve" array (empty
     under --no-serve). *)
  let serve_json =
    match !serve_points with
    | [] -> "[]"
    | points ->
      "[\n"
      ^ String.concat ",\n"
          (List.map
             (fun p ->
               Printf.sprintf
                 "    { \"backend\": \"%s\", \"queries\": %d, \"qps\": %.0f, \
                  \"p50_ms\": %.3f, \"p99_ms\": %.3f }"
                 p.sv_backend p.sv_queries p.sv_qps p.sv_p50_ms p.sv_p99_ms)
             points)
      ^ "\n  ]"
  in
  (* Part 2h's scale-out points land in a "serve_sharded" object (null
     under --no-serve-sharded or when the binary was not found).  The
     host core count rides along: qps scale-out is a property of the
     (binary, host) pair, and a 1-core box physically cannot overlap
     shard compute — only durability waits — so the ratio is
     meaningless without it. *)
  let serve_sharded_json =
    match !sharded_points with
    | [] -> "null"
    | points ->
      let ratio =
        match points with
        | one :: _ when one.sh_qps > 0. ->
          let four = List.nth points (List.length points - 1) in
          four.sh_qps /. one.sh_qps
        | _ -> 0.
      in
      Printf.sprintf "{\n    \"host_cores\": %d,\n    \"scale_out\": %.2f,\n    \"points\": [\n"
        host_cores ratio
      ^ String.concat ",\n"
          (List.map
             (fun p ->
               Printf.sprintf
                 "      { \"shards\": %d, \"queries\": %d, \"qps\": %.0f, \
                  \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"replies_ok\": %b }"
                 p.sh_shards p.sh_queries p.sh_qps p.sh_p50_ms p.sh_p99_ms
                 p.sh_ok)
             points)
      ^ "\n    ]\n  }"
  in
  (* Part 2f's dense-vs-implicit points land in a "backends" array
     (empty under --no-implicit). *)
  let backends_json =
    match !backend_points with
    | [] -> "[]"
    | points ->
      "[\n"
      ^ String.concat ",\n"
          (List.map
             (fun p ->
               Printf.sprintf
                 "    { \"n\": %d, \"dense_ns_per_trial\": %.0f, \
                  \"implicit_ns_per_trial\": %.0f, \
                  \"dense_over_implicit\": %.2f, \"agree\": %b, \
                  \"implicit_peak_rss_kb\": %d, \"dense_peak_rss_kb\": %d }"
                 p.ib_n p.ib_dense_ns p.ib_implicit_ns p.ib_ratio p.ib_agree
                 p.ib_implicit_hwm_kb p.ib_dense_hwm_kb)
             points)
      ^ "\n  ]"
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"e1_clique_pipeline\",\n\
    \  \"n\": %d,\n\
    \  \"trials\": %d,\n\
    \  \"quick\": %b,\n\
    \  \"legacy\": { \"ns_per_trial\": %.0f, \"bytes_per_trial\": %.0f },\n\
    \  \"flat\": { \"ns_per_trial\": %.0f, \"bytes_per_trial\": %.0f },\n\
    \  \"speedup\": %.2f,\n\
    \  \"alloc_ratio\": %.2f,\n\
    \  \"outputs_agree\": %b,\n\
    \  \"lane_width\": %d,\n\
    \  \"batch\": %s,\n\
    \  \"backends\": %s,\n\
    \  \"serve\": %s,\n\
    \  \"serve_sharded\": %s\n\
     }\n"
    kernel_n trials quick legacy_ns legacy_bytes flat_ns flat_bytes speedup
    (legacy_bytes /. Float.max 1. flat_bytes)
    agree Batch.lane_width batch_json backends_json serve_json
    serve_sharded_json;
  close_out oc;
  Printf.printf "  wrote %s\n" path;
  print_newline ()

let () =
  let sink =
    Option.map
      (fun path ->
        let sink =
          try Obs.Sink.open_jsonl path with
          | Sys_error msg ->
            Printf.eprintf "cannot open trace file: %s\n" msg;
            exit 1
        in
        Obs.Sink.attach sink;
        sink)
      opts.trace
  in
  if opts.metrics || Option.is_some sink then Obs.Control.set_enabled true;
  Option.iter Exec.Pool.set_jobs opts.jobs;
  if not opts.no_speedup then run_speedup ();
  if not opts.no_store then run_store_bench ();
  if not opts.no_faults then run_fault_soak ();
  (* Backend comparison first: peak RSS is read from VmHWM, a
     process-lifetime high-water mark, so the implicit legs must run
     before anything that materializes a large dense instance. *)
  if not opts.no_implicit then run_implicit_bench ();
  if not opts.no_batch then run_batch_bench ();
  if not opts.no_serve then run_serve_bench ();
  if not opts.no_serve_sharded then run_serve_sharded_bench ();
  if not opts.no_kernel then run_kernel_bench ();
  Option.iter Obs.Sink.close sink;
  if opts.metrics then Obs.Export.print_summary ()
