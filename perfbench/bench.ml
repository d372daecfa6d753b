(* perfbench: the repository benchmark.

     sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   One run measures one workload (Inputs.workloads, README.md) for about
   S seconds and prints, as its last stdout line, the result object:
   correct, attempted, failed, and the end-to-end metrics (--trace 0)
   or the per-layer metrics (--trace 1).  Work runs in fresh processes:
   trials in re-executions of this binary (--child trial), served
   queries in the real `ephemeral serve` binary, loaded by this process
   over two closed-loop connections.  Every output is checked against
   an oracle outside the timed phase. *)

open Perfbench
module Rng = Prng.Rng
module Tgraph = Temporal.Tgraph

let usage () =
  prerr_endline
    "usage: bench --workload NAME --seed N --seconds S --trace 0|1\n\
    \  workloads: trial-dense, serve-hot";
  exit 2

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Clock, files, /proc *)

let now_ns () = Obs.Clock.now ()
let since_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let since_s t0 = since_ns t0 /. 1e9
let deadline_after s = Int64.add (now_ns ()) (Int64.of_float (s *. 1e9))
let before t = Int64.compare (now_ns ()) t < 0
let work_dir = "_perfbench"
let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let write_file path body =
  let oc = open_out_bin path in
  output_string oc body;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all
let remove_if_exists p = if Sys.file_exists p then Sys.remove p

let proc_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> String.split_on_char '\n' text
  | exception Sys_error _ -> []

(* A "Key:   123 kB"-style field of a /proc status file. *)
let status_field path key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
        Scanf.sscanf_opt
          (String.sub line (i + 1) (String.length line - i - 1))
          " %d" Fun.id
      | _ -> None)
    (proc_lines path)

(* Peak resident set of a process ("self" or a pid), in MB (10^6 B). *)
let vmhwm_mb pid =
  match status_field (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | Some kib -> float_of_int kib *. 1024. /. 1e6
  | None -> fail "cannot read VmHWM of process %s" pid

(* utime + stime of the whole process, in seconds (USER_HZ = 100). *)
let cpu_s pid =
  match proc_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ when String.contains line ')' ->
    let after = String.rindex line ')' + 2 in
    let f =
      Array.of_list
        (String.split_on_char ' '
           (String.sub line after (String.length line - after)))
    in
    float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.
  | _ -> fail "cannot read /proc/%d/stat" pid

(* Context switches summed over the process's live threads. *)
let ctxsw pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let f k =
        Option.value ~default:0
          (status_field (Printf.sprintf "%s/%s/status" dir tid) k)
      in
      acc + f "voluntary_ctxt_switches" + f "nonvoluntary_ctxt_switches")
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* ------------------------------------------------------------------ *)
(* Child processes: every one we start is killed and reaped on exit. *)

let live : int list ref = ref []
let forget pid = live := List.filter (( <> ) pid) !live

let reap pid =
  let st = snd (Unix.waitpid [] pid) in
  forget pid;
  st

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let spawn ?(stdout = Unix.stdout) prog args =
  let pid =
    Unix.create_process prog
      (Array.of_list (prog :: args))
      Unix.stdin stdout Unix.stderr
  in
  live := pid :: !live;
  pid

(* Run a child and return its stdout as lines, failing unless it exits
   0.  [on_line] sees each line as it arrives. *)
let child_lines ?(on_line = ignore) prog args =
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:wr prog args in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let rec read acc =
    match input_line ic with
    | l ->
      on_line l;
      read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  match reap pid with
  | Unix.WEXITED 0 -> lines
  | _ -> fail "%s %s exited abnormally" prog (String.concat " " args)

let self_exe = Sys.executable_name

let server_exe =
  Filename.concat (Filename.dirname self_exe) "../bin/main.exe"

(* ------------------------------------------------------------------ *)
(* Layer probes.  Each call into a layer is timed by our own clock and,
   while Obs.Control is on, recorded as an Obs span (schema-v2 JSONL
   through the attached sink). *)

let counter name = Obs.Metrics.count (Obs.Metrics.counter name)

let pool_busy_ns () =
  List.fold_left
    (fun acc (k, v) ->
      match v with
      | Obs.Metrics.Counter_v c when String.starts_with ~prefix:"pool.busy_ns." k
        ->
        acc + c
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

let timed name f =
  Obs.Span.with_span name (fun () ->
      let t0 = now_ns () in
      let r = f () in
      (r, since_ns t0))

let alloc_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let open_trace path =
  let s = Obs.Sink.open_jsonl path in
  Obs.Sink.attach s;
  s

(* The oracle the ROADMAP keeps: scalar Foremost.arrivals_borrowed,
   one sweep per source; the diameter is the largest eccentricity.
   [on_row] sees each sweep's duration. *)
let scalar_diameter ~on_row net =
  let n = Tgraph.n net in
  let worst = ref 0 and complete = ref true in
  for s = 0 to n - 1 do
    let t0 = now_ns () in
    let arr = Temporal.Foremost.arrivals_borrowed net s in
    on_row (since_ns t0);
    for v = 0 to n - 1 do
      if v <> s then begin
        let a = arr.(v) in
        if a = max_int then complete := false
        else if a > !worst then worst := a
      end
    done
  done;
  if !complete then Some !worst else None

(* ------------------------------------------------------------------ *)
(* Trial child: one fresh process.  Prints "ready" when the first timed
   trial can begin, then one line per trial and a summary. *)

(* One E1 trial: normalized uniform labels on the dense clique, then
   the exact temporal diameter. *)
let trial g rng =
  Temporal.Distance.instance_diameter (Temporal.Assignment.normalized_uniform rng g)

(* The same trial split at its layer boundaries: the label draws in the
   order Assignment.uniform_single makes them, the counting sort, the
   sweep.  Layer times in ns. *)
let traced_trial g rng =
  let m = Sgraph.Graph.m g and a = Sgraph.Graph.n g in
  let labels, draw =
    timed "prng.draw" (fun () -> Array.init m (fun _ -> 1 + Rng.int rng a))
  in
  let net, sort =
    timed "tgraph.sort" (fun () -> Tgraph.of_flat_arcs g ~lifetime:a labels)
  in
  let d, sweep =
    timed "batch.sweep" (fun () -> Temporal.Distance.instance_diameter net)
  in
  (d, [ draw; sort; sweep ])

let probe_counters () =
  List.map counter
    [ "kernel.batch_sweeps"; "kernel.batch_edges_scanned"; "kernel.lane_saturations" ]

(* The pool probe: trials on two domains through Sim.Runner.map, the
   way E1 spreads its trials over the pool, after a warm-up that spawns
   the second domain and grows its heap.  Pool busy time, wall time,
   pool tasks and trials. *)
let pool_probe (w : Inputs.workload) g ~seed ~slot =
  let trials = 8 in
  let run trials =
    Sim.Runner.map (Rng.create (Inputs.trial_seed ~seed ~slot (-1))) ~trials (fun _ rng ->
        trial g rng)
  in
  Exec.Pool.set_jobs 2;
  ignore (run 2);
  Obs.Control.set_enabled true;
  let busy0 = pool_busy_ns () and tasks0 = counter "pool.tasks" in
  let _, wall = timed (w.name ^ "/pool.runner") (fun () -> run trials) in
  let busy = pool_busy_ns () - busy0 and tasks = counter "pool.tasks" - tasks0 in
  Obs.Control.set_enabled false;
  Exec.Pool.set_jobs 1;
  (float_of_int busy, wall, tasks, trials)

let child_trial (w : Inputs.workload) ~seed ~slot ~seconds ~trace =
  let traced = trace <> None in
  let sink = Option.map open_trace trace in
  let out fmt = Printf.printf (fmt ^^ "\n%!") in
  (* One domain: inside E1's Runner.map a trial runs in a pool task,
     where its sweep is sequential.  A second domain would also have to
     meet the first at every minor collection, so the trial would wait
     whenever the other vCPU is busy (README.md, "Steadiness"). *)
  Exec.Pool.set_jobs 1;
  Obs.Control.set_enabled traced;
  let g, topology =
    timed (w.name ^ "/sgraph.topology") (fun () ->
        Sgraph.Gen.clique Sgraph.Graph.Directed w.n)
  in
  Obs.Control.set_enabled false;
  out "ready";
  out "topology %.0f" topology;
  let first = ref None and mismatches = ref 0 in
  let deadline = deadline_after seconds in
  let start = now_ns () in
  let i = ref 0 in
  while before deadline do
    let trial_seed = Inputs.trial_seed ~seed ~slot !i in
    let t0 = now_ns () in
    let d = trial g (Rng.create trial_seed) in
    out "op %.0f" (since_ns t0);
    if !first = None then first := Some d;
    if traced then begin
      (* The traced twin of the same trial, right after it, with the
         probes on; it must find the same diameter. *)
      Obs.Control.set_enabled true;
      let c0 = probe_counters () and a0 = alloc_bytes () in
      let (d', layers), total =
        timed (w.name ^ "/trial") (fun () -> traced_trial g (Rng.create trial_seed))
      in
      let alloc = alloc_bytes () -. a0 in
      let deltas = List.map2 (fun b a -> a - b) c0 (probe_counters ()) in
      Obs.Control.set_enabled false;
      if d' <> d then incr mismatches;
      out "layers %.0f %s %.0f %s" total
        (String.concat " " (List.map (Printf.sprintf "%.0f") layers))
        alloc
        (String.concat " " (List.map string_of_int deltas))
    end;
    incr i
  done;
  out "window %.0f" (since_ns start);
  (* Output check, outside the timed phase: the first trial again,
     against the scalar oracle. *)
  let rows = ref [] and edges0 = counter "kernel.edges_scanned" in
  let checked =
    match !first with
    | Some d ->
      Obs.Control.set_enabled traced;
      let net =
        Temporal.Assignment.normalized_uniform (Rng.create (Inputs.trial_seed ~seed ~slot 0)) g
      in
      let oracle, _ =
        timed (w.name ^ "/oracle") (fun () ->
            scalar_diameter ~on_row:(fun ns -> rows := ns :: !rows) net)
      in
      Obs.Control.set_enabled false;
      if oracle <> d then incr mismatches;
      1
    | None -> 0
  in
  out "check %d %d" checked !mismatches;
  (* The Implicit layer at the trial's size: the derived twin of trial 0
     (Gen.clique_implicit, one seed draw), its lazy prefix built up to
     the bound its diameter sweep reaches. *)
  if traced then begin
    Obs.Control.set_enabled true;
    let gi = Sgraph.Gen.clique_implicit Sgraph.Graph.Directed w.n in
    let twin () =
      Temporal.Assignment.uniform_single_implicit
        (Rng.create (Inputs.trial_seed ~seed ~slot 0)) gi ~a:w.n
    in
    let probe = twin () in
    ignore (Temporal.Distance.instance_diameter probe);
    let bound = Tgraph.stream_prefix_bound probe and net = twin () in
    let rolls0 = counter "implicit.label_rolls" in
    let (), ns =
      timed (w.name ^ "/implicit.stream") (fun () ->
          while Tgraph.stream_prefix_bound net < bound do
            ignore (Tgraph.stream_extend net ~past:(Tgraph.stream_prefix_bound net))
          done)
    in
    Obs.Control.set_enabled false;
    out "implicit %.0f %d %d" ns (counter "implicit.label_rolls" - rolls0) bound;
    let busy, wall, tasks, trials = pool_probe w g ~seed ~slot in
    out "pool %.0f %.0f %d %d" busy wall tasks trials
  end;
  out "rows %d %.0f %d" (List.length !rows)
    (if !rows = [] then 0. else Pstats.median (Array.of_list !rows))
    (counter "kernel.edges_scanned" - edges0);
  out "jobs %d" (Exec.Pool.jobs (Exec.Pool.global ()));
  Option.iter Obs.Sink.close sink;
  out "hwm %.6f" (vmhwm_mb "self")

(* ------------------------------------------------------------------ *)
(* What a workload run measured, before it becomes the result line. *)

type measured = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  details : (string * Json.t) list;
}

(* Layers a workload never enters read 0 (README.md, "Layer map"). *)
let off_path names = List.map (fun n -> (n, 0.)) names
let num f = Json.Num f
let numi i = Json.Num (float_of_int i)

let tail what = function
  | Some h -> h
  | None -> fail "%s: too few operations for a tail percentile" what

let tail_details (h : Pstats.hi) =
  [ ("hi_latency_ms.percentile", num h.percentile);
    ("hi_latency_ms.samples", numi h.samples);
    ("hi_latency_ms.beyond", numi h.beyond) ]

(* ------------------------------------------------------------------ *)
(* Parent side of the trial workloads. *)

type child_report = {
  setup_s : float;
  lines : string list list;  (** lines after "ready", split on spaces *)
}

let run_child args =
  let t0 = now_ns () in
  let setup = ref None in
  let lines =
    child_lines self_exe args ~on_line:(fun l ->
        if l = "ready" && !setup = None then setup := Some (since_s t0))
  in
  match !setup with
  | None -> fail "trial child never became ready"
  | Some setup_s ->
    {
      setup_s;
      lines =
        List.filter_map
          (fun l -> if l = "ready" then None else Some (String.split_on_char ' ' l))
          lines;
    }

let tagged tag r =
  List.filter_map (function t :: rest when t = tag -> Some rest | _ -> None) r.lines

let one tag r =
  match tagged tag r with
  | [ v ] -> List.map float_of_string v
  | _ -> fail "trial child: missing %S line" tag

let first tag r = List.hd (one tag r)
let median_of f reports = Pstats.median (Array.of_list (List.map f reports))

(* Untraced runs split the timed phase over five fresh processes.  Each
   process is a segment: set-up, throughput, tail and peak RSS are
   medians over the processes, so a slow stretch of the shared host or
   a process whose major GC happens to peak with a trial's big arrays
   moves one value of five. *)
let run_trials (w : Inputs.workload) ~seed ~seconds ~traced =
  let procs = if traced then 2 else 5 in
  let trace_path k =
    Printf.sprintf "%s/%s-seed%d-child%d.trace.jsonl" work_dir w.name seed k
  in
  let reports =
    List.init procs (fun slot ->
        run_child
          ([ "--child"; "trial"; "--workload"; w.name; "--seed";
             string_of_int seed; "--seconds";
             Printf.sprintf "%.6f" (seconds /. float_of_int procs); "--slot";
             string_of_int slot ]
          @ if traced then [ "--traced"; trace_path slot ] else []))
  in
  let per_process =
    List.map
      (fun r ->
        Array.of_list (List.map (fun l -> float_of_string (List.hd l) /. 1e6) (tagged "op" r)))
      reports
  in
  let lat_ms = Array.concat per_process in
  let window_s = List.fold_left (fun acc r -> acc +. (first "window" r /. 1e9)) 0. reports in
  let checks = List.map (fun r -> match one "check" r with
      | [ c; b ] -> (int_of_float c, int_of_float b)
      | _ -> fail "trial child: bad check line") reports
  in
  let checked = List.fold_left (fun acc (c, _) -> acc + c) 0 checks in
  let bad = List.fold_left (fun acc (_, b) -> acc + b) 0 checks in
  let trials = Array.length lat_ms in
  let lo = Pstats.median lat_ms in
  let jobs = first "jobs" (List.hd reports) in
  let details =
    [ ("processes", numi procs); ("trials", numi trials);
      ("checked_trials", numi checked); ("timed_s", num window_s);
      ("pool_jobs", num jobs);
      ("peak_rss_mb_each", Json.Arr (List.map (fun r -> num (first "hwm" r)) reports));
      ("trials_each", Json.Arr (List.map (fun r -> numi (List.length (tagged "op" r))) reports)) ]
  in
  let correct = bad = 0 && checked > 0 in
  if not traced then begin
    let hi =
      tail w.name
        (match Pstats.median_hi per_process with
        | Some h -> Some h
        | None -> Pstats.hi_percentile lat_ms)
    in
    let rate r (_, b) =
      float_of_int (List.length (tagged "op" r) - b) /. (first "window" r /. 1e9)
    in
    {
      correct;
      attempted = trials;
      failed = bad;
      metrics =
        [ ("setup_s", median_of (fun r -> r.setup_s) reports);
          ("ops_per_s", Pstats.median (Array.of_list (List.map2 rate reports checks)));
          ("lo_latency_ms", lo); ("hi_latency_ms", hi.value);
          ("peak_rss_mb", median_of (first "hwm") reports) ];
      details = details @ tail_details hi;
    }
  end
  else begin
    (* One trace per run: the children's span files, concatenated. *)
    let trace = Printf.sprintf "%s/%s-seed%d.trace.jsonl" work_dir w.name seed in
    write_file trace
      (String.concat ""
         (List.init procs (fun k ->
              let p = trace_path k in
              let s = read_file p in
              Sys.remove p;
              s)));
    (* Columns: total, draw, sort, sweep (ns), alloc (B), then the
       probe_counters deltas: batch sweeps, batch edges, lane
       saturations. *)
    let layers =
      Array.of_list
        (List.concat_map
           (fun r ->
             List.map (fun l -> Array.of_list (List.map float_of_string l)) (tagged "layers" r))
           reports)
    in
    if layers = [||] then fail "%s: no traced trial completed" w.name;
    let col i = Pstats.median (Array.map (fun a -> a.(i)) layers) in
    (* Pool probe lines: busy ns, wall ns, tasks, trials. *)
    let pool = List.map (one "pool") reports in
    let pool_sum i = List.fold_left (fun acc p -> acc +. List.nth p i) 0. pool in
    let total_ms = col 0 /. 1e6 in
    let layer_sum_ms =
      Pstats.median (Array.map (fun a -> a.(1) +. a.(2) +. a.(3)) layers) /. 1e6
    in
    let rows = List.map (one "rows") reports in
    let nrows = List.fold_left (fun acc r -> acc +. List.nth r 0) 0. rows in
    let checked_rows = List.filter (fun r -> List.nth r 0 > 0.) rows in
    let overhead = total_ms -. lo and gap = layer_sum_ms -. lo in
    Printf.printf "trace: %s (%d traced trials)\n" trace (Array.length layers);
    Printf.printf
      "layers sum to %.3f ms against an untraced trial of %.3f ms (gap %+.3f \
       ms, tracing overhead %+.3f ms): %s\n"
      layer_sum_ms lo gap overhead
      (if Float.abs gap <= Float.abs overhead +. (0.02 *. lo) then "within the overhead"
       else "OUTSIDE the overhead");
    {
      correct;
      attempted = trials + Array.length layers;
      failed = bad;
      metrics =
        [ ("sgraph.topology_s", median_of (fun r -> first "topology" r /. 1e9) reports);
          ("prng.draw_ms", col 1 /. 1e6); ("gc.alloc_mb", col 4 /. 1e6);
          ("tgraph.sort_ms", col 2 /. 1e6); ("batch.sweep_ms", col 3 /. 1e6);
          ("kernel.batch_sweeps", col 5); ("kernel.batch_edges_scanned", col 6);
          ("kernel.lane_saturations", col 7);
          ("foremost.row_us", median_of (fun r -> List.nth r 1 /. 1e3) checked_rows);
          ("kernel.edges_scanned",
            List.fold_left (fun acc r -> acc +. List.nth r 2) 0. rows /. Float.max 1. nrows);
          ("pool.busy_share", pool_sum 0 /. (pool_sum 1 *. 2.));
          ("pool.tasks", pool_sum 2 /. pool_sum 3);
          ("implicit.stream_ms", median_of (fun r -> first "implicit" r /. 1e6) reports);
          ("implicit.label_rolls", median_of (fun r -> List.nth (one "implicit" r) 1) reports);
          ("implicit.prefix_bound", median_of (fun r -> List.nth (one "implicit" r) 2) reports);
          ("trace.overhead_ms", overhead); ("trace.layer_sum_ms", layer_sum_ms) ]
        @ off_path
            [ "corpus.load_s"; "corpus.rss_mb"; "engine.p50_ms"; "engine.inproc_us";
              "engine.hit_ratio"; "engine.sweeps_per_query"; "engine.evictions_per_query";
              "engine.queue_peak"; "engine.shed"; "frontend.p50_ms"; "proto.codec_us";
              "server.cpu_us_per_query"; "server.ctxsw_per_query"; "router.hop_us" ];
      details =
        details
        @ [ ("trace_file", Json.Str trace); ("untraced_lo_latency_ms", num lo);
            ("traced_trial_ms", num total_ms); ("layer_gap_ms", num gap) ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Serve workloads: the real binary, loaded over two connections. *)

let socket_path (w : Inputs.workload) k =
  Printf.sprintf "%s/%s-%d.sock" work_dir w.name k

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

(* Poll every millisecond until a PING round-trips: that is "ready". *)
let wait_ready pid path =
  let deadline = deadline_after 60. in
  let ping () =
    match connect_unix path with
    | None -> false
    | Some fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          try
            Serve.Proto.write_frame fd (Serve.Proto.encode_request Serve.Proto.Ping);
            match Serve.Proto.read_frame ~deadline_s:5. fd with
            | Serve.Proto.Frame p ->
              Serve.Proto.decode_response p = Ok Serve.Proto.Ok_empty
            | _ -> false
          with Unix.Unix_error _ | Sys_error _ -> false)
  in
  while not (ping ()) do
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      forget pid;
      fail "server exited before it answered PING (see %s/server.log)" work_dir);
    if not (before deadline) then fail "server not ready after 60 s";
    Unix.sleepf 0.001
  done

(* One server domain.  With the load generator on the other core, work
   handed to a sleeping pool domain waits for a cross-core wake-up: at
   --jobs 2 a cache-miss mix spread ten times wider (README.md,
   "Steadiness"). *)
let server_jobs = 1

let server_args (w : Inputs.workload) ~socket ~manifest ~report ~shards =
  [ "serve"; "--socket"; socket; "--manifest"; manifest; "--backend"; "dense";
    "--cache-rows"; string_of_int w.cache_rows;
    "--jobs"; string_of_int server_jobs; "--report"; report ]
  @ if shards then [ "--shards"; "1" ] else []

(* Spawn the server; set-up time runs from just before the spawn to the
   first answered PING. *)
let start_server args ~socket =
  remove_if_exists socket;
  let log =
    Unix.openfile
      (Filename.concat work_dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let t0 = now_ns () in
  let pid =
    Unix.create_process server_exe
      (Array.of_list (server_exe :: args))
      Unix.stdin log log
  in
  live := pid :: !live;
  Unix.close log;
  wait_ready pid socket;
  (pid, since_s t0)

(* SIGTERM starts the drain.  An idle server can sit on it: when the
   signal lands on a thread parked in a condition wait, no OCaml code
   runs to handle it until something wakes the process.  So the socket
   is poked (connect, close) until the server exits. *)
let stop_server pid ~socket =
  Unix.kill pid Sys.sigterm;
  let deadline = deadline_after 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if not (before deadline) then fail "server %d ignored SIGTERM for 30 s" pid;
      Unix.sleepf 0.02;
      Option.iter Unix.close (connect_unix socket);
      wait ()
    | _, st ->
      forget pid;
      st
  in
  match wait () with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "server %d did not drain cleanly" pid

let connect socket =
  match Serve.Client.connect ~timeout_s:5. (Serve.Server.Unix_path socket) with
  | Ok c -> c
  | Error m -> fail "connect %s: %s" socket m

let server_stats client =
  match Serve.Client.call ~timeout_s:5. client Serve.Proto.Stats with
  | Ok (Serve.Proto.Ok_text t) ->
    List.filter_map
      (fun kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] -> Some (k, float_of_string v)
        | _ -> None)
      (String.split_on_char ' ' (String.trim t))
  | _ -> fail "STATS failed"

let stat s k =
  match List.assoc_opt k s with Some v -> v | None -> fail "STATS lacks %s" k

(* One connection's share of a phase: query i of the connection's
   stream is [first + i].  [got] keeps each reply's value for the
   check after the phase (-1 = unreachable, -2 = already failed). *)
type conn_log = {
  conn : int;
  first : int;
  lat : float array;  (** round trips, ns *)
  ends : float array;  (** completion times, s from the phase start *)
  got : int array;
  mutable count : int;
  errors : Tally.t;
}

let request (w : Inputs.workload) (q : Inputs.query) =
  Serve.Proto.Foremost
    {
      Serve.Proto.instance = Inputs.instance_id w q.Inputs.inst;
      source = q.Inputs.source;
      target = q.Inputs.target;
      deadline_ms = 0;
    }

(* Both connections from this one thread, each a closed loop: it holds
   one request in the server, as Serve.Client and `ephemeral query`
   callers do, and sends the next when the reply is in.  select(2)
   picks whichever reply lands first.  One thread, so the load needs
   one vCPU and no second domain that every minor collection would
   have to wait for.  Runs until [seconds] have passed or each
   connection has sent [ops] queries; a connection whose transport
   fails stops there.  In traced mode each send and each receive is a
   span.  Returns the logs and the phase's wall time. *)
let phase (w : Inputs.workload) ~seed ~hot ~next clients ?(traced = false) ~seconds
    ~ops () =
  let fds = Array.map Serve.Client.fd clients in
  let start = now_ns () in
  let until = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let logs =
    Array.mapi
      (fun c _ ->
        { conn = c; first = next.(c); lat = Array.make ops 0.; ends = Array.make ops 0.;
          got = Array.make ops 0; count = 0; errors = Tally.create () })
      clients
  in
  let span name f = if traced then Obs.Span.with_span (w.name ^ "/" ^ name) f else f () in
  let sent = Array.make (Array.length fds) 0L in
  let open_ = ref [] in
  let record c reply =
    let l = logs.(c) in
    l.lat.(l.count) <- since_ns sent.(c);
    l.ends.(l.count) <- since_s start;
    (match reply with
    | Ok (Serve.Proto.Ok_value v) -> l.got.(l.count) <- Option.value ~default:(-1) v
    | r ->
      l.got.(l.count) <- -2;
      Tally.add l.errors (Tally.classify ~expected:None r));
    l.count <- l.count + 1;
    match reply with
    | Error _ -> open_ := List.filter (( <> ) c) !open_
    | Ok _ -> ()
  in
  let send c =
    let l = logs.(c) in
    if l.count < ops && before until then begin
      let q = Inputs.query w ~seed ~hot ~conn:c (l.first + l.count) in
      let frame = Serve.Proto.encode_request (request w q) in
      sent.(c) <- now_ns ();
      match span "query.send" (fun () -> Serve.Proto.write_frame fds.(c) frame) with
      | () -> ()
      | exception e -> record c (Error (Printf.sprintf "write: %s" (Printexc.to_string e)))
    end
    else open_ := List.filter (( <> ) c) !open_
  in
  let receive c =
    span "query.recv" (fun () ->
        match Serve.Proto.read_frame ~deadline_s:5. fds.(c) with
        | Serve.Proto.Frame p -> (
          match Serve.Proto.decode_response p with
          | Ok r -> Ok r
          | Error m -> Error ("protocol violation: " ^ m))
        | Serve.Proto.Eof -> Error "connection closed by server"
        | Serve.Proto.Timeout -> Error "timed out waiting for reply"
        | Serve.Proto.Oversized k -> Error (Printf.sprintf "%d-byte reply frame" k))
  in
  open_ := List.init (Array.length fds) Fun.id;
  List.iter send !open_;
  while !open_ <> [] do
    match Unix.select (List.map (fun c -> fds.(c)) !open_) [] [] 5. with
    | [], _, _ -> List.iter (fun c -> record c (Error "timed out waiting for reply")) !open_
    | ready, _, _ ->
      List.iter
        (fun c ->
          if List.mem fds.(c) ready then begin
            let reply = receive c in
            record c reply;
            if List.mem c !open_ then send c
          end)
        !open_
  done;
  let wall = since_s start in
  Array.iteri (fun c l -> next.(c) <- next.(c) + l.count) logs;
  (logs, wall)

let cap_for seconds = int_of_float (seconds *. 80_000.) + 1024

let conn_latencies_ms logs =
  List.map (fun l -> Array.init l.count (fun i -> l.lat.(i) /. 1e6)) (Array.to_list logs)

let latencies_ms logs = Array.concat (conn_latencies_ms logs)

(* Warm-up: 16 queries per hot source and connection, so every hot row
   is in the cache before timing. *)
let warm_up (w : Inputs.workload) ~seed ~hot ~next clients =
  fst (phase w ~seed ~hot ~next clients ~seconds:60. ~ops:(16 * w.hot_sources) ())

(* The oracle: arrival rows of the same manifest built in this process
   (implicit backend; rows are backend-independent), one scalar sweep
   per (instance, source), memoised. *)
type oracle = {
  nets : Tgraph.t array;
  rows : (int * int, int array) Hashtbl.t;
  mutable row_ns : float list;
}

let load_oracle (w : Inputs.workload) lines =
  let corpus = Serve.Corpus.load ~backend:Sim.Backend.Implicit lines in
  let nets = Array.of_list (List.map snd (Serve.Corpus.available corpus)) in
  if Array.length nets <> w.instances then fail "oracle corpus failed to load";
  { nets; rows = Hashtbl.create 4096; row_ns = [] }

let expected o (q : Inputs.query) =
  let row =
    match Hashtbl.find_opt o.rows (q.inst, q.source) with
    | Some r -> r
    | None ->
      let net = o.nets.(q.inst) in
      let t0 = now_ns () in
      let arr = Temporal.Foremost.arrivals_borrowed net q.source in
      o.row_ns <- since_ns t0 :: o.row_ns;
      let r = Array.sub arr 0 (Tgraph.n net) in
      Hashtbl.replace o.rows (q.inst, q.source) r;
      r
  in
  if row.(q.target) = max_int then None else Some row.(q.target)

(* Check every recorded reply against the oracle, into [tally]. *)
let check (w : Inputs.workload) ~seed ~hot o logs tally =
  Array.iter
    (fun l ->
      for i = 0 to l.count - 1 do
        let g = l.got.(i) in
        if g <> -2 then begin
          let q = Inputs.query w ~seed ~hot ~conn:l.conn (l.first + i) in
          let got = if g = -1 then None else Some g in
          Tally.add tally (Tally.classify ~expected:(expected o q) (Ok (Serve.Proto.Ok_value got)))
        end
      done;
      (* Replies that failed on arrival were classified then. *)
      tally.Tally.attempted <- tally.Tally.attempted + l.errors.Tally.attempted;
      tally.Tally.failed <- tally.Tally.failed + l.errors.Tally.failed;
      if tally.Tally.first_failure = None then
        tally.Tally.first_failure <- l.errors.Tally.first_failure)
    logs

let codec_probe () =
  let req =
    Serve.Proto.Foremost
      { Serve.Proto.instance = "g0"; source = 17; target = 42; deadline_ms = 0 }
  and resp = Serve.Proto.Ok_value (Some 9) in
  let per_batch = 2000 in
  let batch () =
    let t0 = now_ns () in
    for _ = 1 to per_batch do
      ignore (Sys.opaque_identity (Serve.Proto.decode_request (Serve.Proto.encode_request req)));
      ignore
        (Sys.opaque_identity (Serve.Proto.decode_response (Serve.Proto.encode_response resp)))
    done;
    since_ns t0 /. float_of_int per_batch /. 1e3
  in
  Pstats.median (Array.init 41 (fun _ -> batch ()))

(* In-process Engine.submit + Engine.await with a started dispatcher,
   over the workload's stream (both connections' queries, interleaved),
   after the same warm-up rule.  Returns the median in us and the MB
   allocated per query. *)
let engine_probe (w : Inputs.workload) ~seed ~hot corpus ~seconds =
  let config = { Serve.Engine.default_config with Serve.Engine.cache_max = w.cache_rows } in
  let e = Serve.Engine.create ~config corpus in
  Serve.Engine.start e;
  let i = ref 0 in
  let one () =
    let q = Inputs.query w ~seed ~hot ~conn:(!i land 1) (!i lsr 1) in
    incr i;
    match
      Serve.Engine.submit e ~instance:(Inputs.instance_id w q.Inputs.inst)
        ~source:q.Inputs.source ()
    with
    | Serve.Engine.Admitted t -> (
      match Serve.Engine.await t with
      | Serve.Engine.Row _ -> ()
      | Serve.Engine.Err _ -> fail "engine probe: error reply")
    | Serve.Engine.Rejected _ -> fail "engine probe: rejected"
  in
  for _ = 1 to 32 * w.hot_sources do one () done;
  let lat = ref [] and a0 = alloc_bytes () in
  let until = deadline_after seconds in
  while before until do
    let t0 = now_ns () in
    one ();
    lat := since_ns t0 :: !lat
  done;
  let alloc = alloc_bytes () -. a0 in
  Serve.Engine.drain e;
  (Pstats.median (Array.of_list !lat) /. 1e3, alloc /. float_of_int (List.length !lat) /. 1e6)

let child_corpus (w : Inputs.workload) ~seed =
  let t0 = now_ns () in
  let c = Serve.Corpus.load ~backend:Sim.Backend.Dense (Inputs.manifest w ~seed) in
  let s = since_s t0 in
  if List.length (Serve.Corpus.available c) <> w.instances then
    fail "corpus child: load failed";
  Printf.printf "%.9f %.6f\n%!" s (vmhwm_mb "self")

(* serve --shards 1 against the single process, both warm: the router's
   extra hop, in us. *)
let router_hop (w : Inputs.workload) ~seed ~hot ~manifest ~seconds ~single_lo =
  let socket = Printf.sprintf "%s/%s-router.sock" work_dir w.name in
  let report = Printf.sprintf "%s/%s-router.ledger.json" work_dir w.name in
  let pid, _ = start_server (server_args w ~socket ~manifest ~report ~shards:true) ~socket in
  let clients = [| connect socket; connect socket |] in
  let next = [| 0; 0 |] in
  ignore (warm_up w ~seed ~hot ~next clients);
  let logs, _ = phase w ~seed ~hot ~next clients ~seconds ~ops:(cap_for seconds) () in
  Array.iter Serve.Client.close clients;
  stop_server pid ~socket;
  (Pstats.median (latencies_ms logs) -. single_lo) *. 1e3

let run_serve (w : Inputs.workload) ~seed ~seconds ~traced =
  (* In-process probes run the engine as the server does. *)
  Exec.Pool.set_jobs server_jobs;
  let lines = Inputs.manifest w ~seed in
  let manifest = Printf.sprintf "%s/%s-seed%d.manifest" work_dir w.name seed in
  write_file manifest (String.concat "\n" lines ^ "\n");
  let args k =
    server_args w ~socket:(socket_path w k) ~manifest
      ~report:(Printf.sprintf "%s/%s-%d.ledger.json" work_dir w.name k)
      ~shards:false
  in
  (* Set up five times; the last server takes the load. *)
  let spawns = 5 in
  let setups = Array.make spawns 0. and pid = ref 0 in
  for k = 0 to spawns - 1 do
    let p, s = start_server (args k) ~socket:(socket_path w k) in
    setups.(k) <- s;
    if k < spawns - 1 then stop_server p ~socket:(socket_path w k) else pid := p
  done;
  let pid = !pid and socket = socket_path w (spawns - 1) in
  let ledger = Printf.sprintf "%s/%s-%d.ledger.json" work_dir w.name (spawns - 1) in
  let clients = [| connect socket; connect socket |] in
  let hot = Inputs.hot_set w ~seed in
  let next = [| 0; 0 |] in
  let warm = warm_up w ~seed ~hot ~next clients in
  let s0 = server_stats clients.(0) in
  let cpu0 = cpu_s pid and cs0 = ctxsw pid in
  (* Traced mode: half the phase untraced, then half with a span per
     query, on the same server. *)
  let untraced_s = if traced then seconds /. 2. else seconds in
  let logs, wall =
    phase w ~seed ~hot ~next clients ~seconds:untraced_s ~ops:(cap_for untraced_s) ()
  in
  let cpu1 = cpu_s pid and cs1 = ctxsw pid in
  let s1 = server_stats clients.(0) in
  let trace = Printf.sprintf "%s/%s-seed%d.trace.jsonl" work_dir w.name seed in
  let sink = if traced then Some (open_trace trace) else None in
  let traced_logs =
    if traced then begin
      Obs.Control.set_enabled true;
      let l, _ =
        phase w ~seed ~hot ~next clients ~traced:true ~seconds:(seconds /. 2.)
          ~ops:(cap_for (seconds /. 2.)) ()
      in
      Obs.Control.set_enabled false;
      Some l
    end
    else None
  in
  let s2 = server_stats clients.(0) in
  let hwm = vmhwm_mb (string_of_int pid) in
  Array.iter Serve.Client.close clients;
  stop_server pid ~socket;
  (* Output check, after the server is gone. *)
  Obs.Control.set_enabled traced;
  let edges0 = counter "kernel.edges_scanned" in
  let (o, warm_tally, tally), _ =
    timed (w.name ^ "/oracle") (fun () ->
        let o = load_oracle w lines in
        let warm_tally = Tally.create () and tally = Tally.create () in
        check w ~seed ~hot o warm warm_tally;
        check w ~seed ~hot o logs tally;
        (o, warm_tally, tally))
  in
  let edges_per_row =
    float_of_int (counter "kernel.edges_scanned" - edges0)
    /. float_of_int (max 1 (List.length o.row_ns))
  in
  Obs.Control.set_enabled false;
  let traced_tally = Tally.create () in
  Option.iter (fun l -> check w ~seed ~hot o l traced_tally) traced_logs;
  List.iter
    (fun (what, t) ->
      Option.iter
        (fun f ->
          Printf.printf "%s: %d of %d failed, first: %s\n" what t.Tally.failed
            t.Tally.attempted f)
        t.Tally.first_failure)
    [ ("warm-up", warm_tally); ("timed", tally); ("traced", traced_tally) ];
  (* Every query sent is an attempt; ops_per_s counts the timed phase's
     correct replies only. *)
  let all = [ warm_tally; tally; traced_tally ] in
  let attempted = List.fold_left (fun a t -> a + t.Tally.attempted) 0 all in
  let failed = List.fold_left (fun a t -> a + t.Tally.failed) 0 all in
  let lo = Pstats.median (latencies_ms logs) in
  let timed_ops = Array.fold_left (fun acc l -> acc + l.count) 0 logs in
  let dq = Float.max 1. (stat s1 "queries" -. stat s0 "queries") in
  let details =
    [ ("server_flags",
        Json.Str
          (String.concat " "
             (server_args w ~socket:"SOCKET" ~manifest:"MANIFEST" ~report:"LEDGER"
                ~shards:false)));
      ("manifest", Json.Arr (List.map (fun l -> Json.Str l) lines));
      ("connections", numi 2); ("loop", Json.Str "closed");
      ("warmup_queries", numi warm_tally.Tally.attempted); ("timed_queries", numi timed_ops);
      ("timed_s", num wall); ("mean_ops_per_s", num (float_of_int timed_ops /. wall));
      ("setup_s_each", Json.Arr (Array.to_list (Array.map num setups)));
      ("cache_hit_ratio", num ((stat s1 "cache_hits" -. stat s0 "cache_hits") /. dq)) ]
  in
  if not traced then begin
    let hi = tail w.name (Pstats.segmented_hi (conn_latencies_ms logs)) in
    let ends = List.map (fun l -> Array.sub l.ends 0 l.count) (Array.to_list logs) in
    let correct_share =
      float_of_int (timed_ops - tally.Tally.failed) /. float_of_int (max 1 timed_ops)
    in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        [ ("setup_s", Pstats.median setups);
          ("ops_per_s", correct_share *. Pstats.closed_loop_rate ends);
          ("lo_latency_ms", lo); ("hi_latency_ms", hi.value); ("peak_rss_mb", hwm) ];
      details = details @ tail_details hi;
    }
  end
  else begin
    let traced_lo = Pstats.median (latencies_ms (Option.get traced_logs)) in
    let engine_p50 =
      match Json.parse (read_file ledger) with
      | Error m -> fail "ledger: %s" m
      | Ok j -> (
        let p50 = Option.bind (Json.member "volatile" j) (Json.member "latency_ms_p50") in
        match Option.bind p50 Json.to_num with
        | Some v -> v
        | None -> fail "ledger lacks latency_ms_p50")
    in
    let corpus_load, corpus_rss =
      match
        child_lines self_exe
          [ "--child"; "corpus"; "--workload"; w.name; "--seed"; string_of_int seed ]
      with
      | [ l ] -> Scanf.sscanf l "%f %f" (fun a b -> (a, b))
      | _ -> fail "corpus child: bad output"
    in
    Obs.Control.set_enabled true;
    let topology, _ =
      timed (w.name ^ "/sgraph.topology") (fun () ->
          let t0 = now_ns () in
          for _ = 1 to w.instances do
            ignore (Sys.opaque_identity (Sgraph.Gen.clique Sgraph.Graph.Directed w.n))
          done;
          since_s t0)
    in
    let codec, _ = timed (w.name ^ "/proto.codec") codec_probe in
    let (inproc, alloc), _ =
      timed (w.name ^ "/engine.inproc") (fun () ->
          engine_probe w ~seed ~hot
            (Serve.Corpus.load ~backend:Sim.Backend.Dense lines)
            ~seconds:(Float.min 2. (seconds /. 4.)))
    in
    let hop, _ =
      timed (w.name ^ "/router.hop") (fun () ->
          router_hop w ~seed ~hot ~manifest ~seconds:(seconds /. 4.) ~single_lo:lo)
    in
    Obs.Control.set_enabled false;
    Option.iter Obs.Sink.close sink;
    (* STATS deltas over both timed phases. *)
    let per_query k =
      (stat s2 k -. stat s0 k) /. Float.max 1. (stat s2 "queries" -. stat s0 "queries")
    in
    {
      correct = failed = 0;
      attempted;
      failed;
      metrics =
        [ ("sgraph.topology_s", topology); ("gc.alloc_mb", alloc);
          ("foremost.row_us", Pstats.median (Array.of_list o.row_ns) /. 1e3);
          ("kernel.edges_scanned", edges_per_row); ("corpus.load_s", corpus_load);
          ("corpus.rss_mb", corpus_rss); ("engine.p50_ms", engine_p50);
          ("engine.inproc_us", inproc); ("engine.hit_ratio", per_query "cache_hits");
          ("engine.sweeps_per_query", per_query "sweeps");
          ("engine.evictions_per_query", per_query "evictions");
          ("engine.queue_peak", stat s2 "queue_peak");
          ("engine.shed", stat s2 "shed" -. stat s0 "shed");
          ("frontend.p50_ms", lo -. engine_p50); ("proto.codec_us", codec);
          ("server.cpu_us_per_query", (cpu1 -. cpu0) /. dq *. 1e6);
          ("server.ctxsw_per_query", float_of_int (cs1 - cs0) /. dq); ("router.hop_us", hop);
          ("trace.overhead_ms", traced_lo -. lo) ]
        @ off_path
            [ "prng.draw_ms"; "tgraph.sort_ms"; "implicit.stream_ms"; "implicit.label_rolls";
              "implicit.prefix_bound"; "batch.sweep_ms";
              "kernel.batch_sweeps"; "kernel.batch_edges_scanned"; "kernel.lane_saturations";
              "pool.busy_share"; "pool.tasks"; "trace.layer_sum_ms" ];
      details =
        details
        @ [ ("trace_file", Json.Str trace); ("untraced_lo_latency_ms", num lo);
            ("traced_lo_latency_ms", num traced_lo) ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Entry point *)

let fingerprint () =
  List.find_map
    (fun l -> Scanf.sscanf_opt l "code fingerprint : %s@ " Fun.id)
    (child_lines server_exe [ "version" ])
  |> Option.value ~default:"unknown"

let result (w : Inputs.workload) ~seed ~seconds ~traced (m : measured) =
  let line =
    {
      Report.correct = m.correct && List.for_all (fun (_, v) -> Float.is_finite v) m.metrics;
      attempted = m.attempted;
      failed = m.failed;
      metrics =
        List.map
          (fun (name, unit_) ->
            match List.assoc_opt name m.metrics with
            | Some v -> (name, ((if Float.is_finite v then v else 0.), unit_))
            | None -> fail "metric %s was not measured" name)
          (Report.expected ~traced);
    }
  in
  let provenance =
    [ ("workload", Json.Str w.name); ("seed", numi seed); ("seconds", numi seconds);
      ("trace", Json.Bool traced); ("nproc", numi (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version); ("fingerprint", Json.Str (fingerprint ()));
      ("n", numi w.n);
      ("instances", numi w.instances) ]
  in
  ensure_dir (Filename.concat work_dir "results");
  let path =
    Printf.sprintf "%s/results/%s-seed%d-trace%d.json" work_dir w.name seed
      (if traced then 1 else 0)
  in
  write_file path (Json.to_string (Report.document ~line ~provenance ~details:m.details) ^ "\n");
  List.iter
    (fun (k, v) -> Printf.printf "%-28s %s\n" k (Json.to_string v))
    (provenance @ m.details);
  List.iter (fun (k, (v, u)) -> Printf.printf "%-28s %.6g %s\n" k v u) line.Report.metrics;
  Printf.printf "result file: %s\n" path;
  print_endline (Json.to_string (Report.line_json line))

let () =
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k o in
  let int k = match Option.bind (get k) int_of_string_opt with Some v -> v | None -> usage () in
  let w = match Option.bind (get "--workload") Inputs.find with Some w -> w | None -> usage () in
  let seed = int "--seed" in
  match get "--child" with
  | Some "trial" ->
    let seconds =
      match Option.bind (get "--seconds") float_of_string_opt with Some s -> s | None -> usage ()
    in
    child_trial w ~seed ~slot:(int "--slot") ~seconds ~trace:(get "--traced")
  | Some "corpus" -> child_corpus w ~seed
  | Some _ -> usage ()
  | None ->
    let seconds = int "--seconds" in
    let traced = match get "--trace" with Some "0" -> false | Some "1" -> true | _ -> usage () in
    if seconds < 1 then usage ();
    if not (Sys.file_exists server_exe) then fail "%s not built" server_exe;
    at_exit kill_all;
    (* A write to a connection the server closed fails as EPIPE, a
       failed operation, instead of killing the run. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> fail "run exceeded 175 s"));
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> fail "interrupted")))
      [ Sys.sigint; Sys.sigterm ];
    ignore (Unix.alarm 175);
    ensure_dir work_dir;
    let s = float_of_int seconds in
    let m =
      match w.kind with
      | Inputs.Trial -> run_trials w ~seed ~seconds:s ~traced
      | Inputs.Serve -> run_serve w ~seed ~seconds:s ~traced
    in
    result w ~seed ~seconds ~traced m
