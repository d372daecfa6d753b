(* The query engine behind `ephemeral serve`.

   Every query op (foremost, arrivals, reach, ecc) is a readout of one
   (instance, source) arrival row, so the unit of work — and of
   caching and batching — is the row.  Connection threads submit
   (instance, source, deadline) jobs into a bounded admission queue; a
   dispatch cycle takes the whole queue, groups jobs by instance,
   dedupes sources, and computes the missing rows on the global
   {!Exec.Pool}, sources packed {!Temporal.Batch.arrival_lanes} per
   word-parallel sweep on either backend — the lane budget keeps a
   sweep's n * lanes arrival matrix within max(2^20, n) words, so the
   implicit backend's O(n)-scratch contract holds without asking
   which backend is in use.

   Robustness properties, each load-bearing for the chaos soak:

   - {b Admission bound.}  The queue never holds more than
     [queue_max] jobs; a submit against a full queue is shed with
     [Resource_exhausted] *before* any allocation proportional to the
     request.  [queue_peak] (exposed in {!stats}) proves the bound
     held over a whole run.
   - {b Deadlines.}  A job carries an absolute deadline; the cycle
     re-checks it at every cooperative point — on taking the queue,
     and per lane-group/sweep inside the pool task — so an expired job
     costs at most one sweep, not a full dispatch cycle.  Expired jobs
     answer [Deadline_exceeded].
   - {b Store cache with retry.}  Rows can persist in a
     {!Store.Objects} store; reads and writes go through
     {!Fault.Retry.with_backoff} with deterministic jitter and a
     wall-time budget, and any persistent failure degrades to a
     recompute (reads) or a skipped publish (writes) — the store is an
     accelerator, never a correctness dependency.
   - {b Drain.}  [drain] stops admission ([Shutting_down]), waits out
     a running cycle, then runs cycles until the queue is empty — no
     reply is ever dropped.

   Determinism: a row is a pure function of the instance labelling
   and the source — backend- and jobs-invariant — so replies are
   byte-identical however queries were batched, shed, or cached.

   Threading (flat combining): there is no engine thread.  A thread
   in [await] whose ticket is unanswered runs the next cycle itself
   when none is running and the queue is non-empty; every other
   awaiter waits on [qc], which each cycle broadcasts when it ends.
   At most one cycle runs at a time, so the row cache and the store
   publishes need no lock of their own.  The queue, the [running]
   flag and every ticket's result are guarded by [qm]. *)

type config = {
  queue_max : int;
  batch_window_s : float;
      (* a cycle's runner sleeps this long before it takes the queue,
         so concurrent clients coalesce into one sweep *)
  cache_max : int;  (* in-memory rows kept (LRU eviction) *)
  store : Store.Objects.t option;
  jitter_seed : int64;  (* retry decorrelation *)
}

let default_config =
  {
    queue_max = 256;
    batch_window_s = 0.;
    cache_max = 4096;
    store = None;
    jitter_seed = 0L;
  }

type reply =
  | Row of int array
      (* the (instance, source) arrival row, [max_int] = unreachable;
         shared with the cache — readers must not mutate *)
  | Err of Proto.error_code * string

type stats = {
  queries : int;
  shed : int;
  expired : int;
  cache_hits : int;
  store_hits : int;
  sweeps : int;
  evictions : int;
  queue_peak : int;
}

(* ------------------------------------------------------------------ *)
(* LRU row cache

   An intrusive doubly-linked list threaded through the cache nodes,
   plus a hashtable for O(1) key lookup.  The list is cyclic around a
   sentinel: [sentinel.next] is the most recently used node,
   [sentinel.prev] the eviction candidate.  Touched only inside a
   dispatch cycle, and cycles never overlap — no locking. *)

type lru_node = {
  lru_key : string * int;
  lru_row : int array;
  mutable lru_prev : lru_node;
  mutable lru_next : lru_node;
}

let lru_sentinel () =
  let rec s =
    { lru_key = ("", -1); lru_row = [||]; lru_prev = s; lru_next = s }
  in
  s

let lru_unlink node =
  node.lru_prev.lru_next <- node.lru_next;
  node.lru_next.lru_prev <- node.lru_prev

let lru_push_front s node =
  node.lru_next <- s.lru_next;
  node.lru_prev <- s;
  s.lru_next.lru_prev <- node;
  s.lru_next <- node

type ticket = {
  engine : t;
  mutable result : reply option;  (* under [engine.qm] *)
  submitted : float;
}

and job = {
  j_instance : string;
  j_net : Temporal.Tgraph.t;
  j_spec : Corpus.spec option;
  j_source : int;
  j_deadline : float;  (* absolute {!Obs.Clock.wall_s}; infinity = none *)
  j_ticket : ticket;
}

and t = {
  corpus : Corpus.t;
  cfg : config;
  qm : Mutex.t;
  qc : Condition.t;  (* broadcast at the end of every cycle *)
  queue : job Queue.t;
  mutable queue_len : int;
  mutable queue_peak : int;
  mutable accepting : bool;
  mutable running : bool;  (* a dispatch cycle is in progress *)
  cache : (string * int, lru_node) Hashtbl.t;
  cache_lru : lru_node;  (* sentinel of the recency list *)
  (* monotonically increasing tallies, cycle/submit side *)
  mutable n_queries : int;
  mutable n_shed : int;
  mutable n_expired : int;
  mutable n_cache_hits : int;
  mutable n_store_hits : int;
  mutable n_sweeps : int;
  mutable n_evictions : int;
  c_queries : Obs.Metrics.counter;
  c_shed : Obs.Metrics.counter;
  c_expired : Obs.Metrics.counter;
  c_cache_hits : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
  c_sweeps : Obs.Metrics.counter;
  g_depth : Obs.Metrics.gauge;
  h_latency : Obs.Metrics.histogram;
}

let create ?(config = default_config) corpus =
  if config.queue_max < 1 then
    invalid_arg "Engine.create: queue_max must be >= 1";
  if config.cache_max < 0 then
    invalid_arg "Engine.create: cache_max must be >= 0";
  {
    corpus;
    cfg = config;
    qm = Mutex.create ();
    qc = Condition.create ();
    queue = Queue.create ();
    queue_len = 0;
    queue_peak = 0;
    accepting = true;
    running = false;
    cache = Hashtbl.create 256;
    cache_lru = lru_sentinel ();
    n_queries = 0;
    n_shed = 0;
    n_expired = 0;
    n_cache_hits = 0;
    n_store_hits = 0;
    n_sweeps = 0;
    n_evictions = 0;
    c_queries = Obs.Metrics.counter "serve.queries";
    c_shed = Obs.Metrics.counter "serve.shed";
    c_expired = Obs.Metrics.counter "serve.deadline_exceeded";
    c_cache_hits = Obs.Metrics.counter "serve.cache_hits";
    c_evictions = Obs.Metrics.counter "serve.cache_evictions";
    c_sweeps = Obs.Metrics.counter "serve.sweeps";
    g_depth = Obs.Metrics.gauge "serve.queue_depth";
    h_latency = Obs.Metrics.histogram "serve.latency_ms";
  }

let stats t =
  Mutex.lock t.qm;
  let s =
    {
      queries = t.n_queries;
      shed = t.n_shed;
      expired = t.n_expired;
      cache_hits = t.n_cache_hits;
      store_hits = t.n_store_hits;
      sweeps = t.n_sweeps;
      evictions = t.n_evictions;
      queue_peak = t.queue_peak;
    }
  in
  Mutex.unlock t.qm;
  s

(* ------------------------------------------------------------------ *)
(* Tickets *)

(* The awaiter reads the result once the cycle's closing broadcast
   wakes it. *)
let resolve t ticket reply =
  Mutex.lock t.qm;
  (* First writer wins: a failed instance group answers Internal
     without overwriting the replies it already gave. *)
  (match ticket.result with
  | None -> ticket.result <- Some reply
  | Some _ -> ());
  Mutex.unlock t.qm;
  Obs.Metrics.observe t.h_latency
    ((Obs.Clock.wall_s () -. ticket.submitted) *. 1000.)

(* ------------------------------------------------------------------ *)
(* Admission *)

type admission = Admitted of ticket | Rejected of Proto.error_code * string

let submit t ~instance ~source ?deadline_s () =
  match Corpus.find t.corpus instance with
  | None ->
    Rejected (Proto.Unknown_instance, Printf.sprintf "no instance %S" instance)
  | Some { status = Corpus.Failed m; _ } ->
    Rejected
      (Proto.Unavailable, Printf.sprintf "instance %S failed to load: %s" instance m)
  | Some { status = Corpus.Available net; spec; _ } ->
    let n = Temporal.Tgraph.n net in
    if source < 0 || source >= n then
      Rejected
        ( Proto.Bad_arg,
          Printf.sprintf "source %d out of range [0, %d)" source n )
    else begin
      let now = Obs.Clock.wall_s () in
      let deadline =
        match deadline_s with
        | Some d when d > 0. -> now +. d
        | _ -> infinity
      in
      let ticket = { engine = t; result = None; submitted = now } in
      let job =
        {
          j_instance = instance;
          j_net = net;
          j_spec = spec;
          j_source = source;
          j_deadline = deadline;
          j_ticket = ticket;
        }
      in
      Mutex.lock t.qm;
      let verdict =
        if not t.accepting then
          Rejected (Proto.Shutting_down, "server is draining")
        else if t.queue_len >= t.cfg.queue_max then begin
          t.n_shed <- t.n_shed + 1;
          Rejected
            ( Proto.Resource_exhausted,
              Printf.sprintf "admission queue full (%d)" t.cfg.queue_max )
        end
        else begin
          Queue.push job t.queue;
          t.queue_len <- t.queue_len + 1;
          if t.queue_len > t.queue_peak then t.queue_peak <- t.queue_len;
          t.n_queries <- t.n_queries + 1;
          Admitted ticket
        end
      in
      let depth = t.queue_len in
      Mutex.unlock t.qm;
      (match verdict with
      | Admitted _ ->
        Obs.Metrics.incr t.c_queries;
        Obs.Metrics.set t.g_depth (float_of_int depth)
      | Rejected (Proto.Resource_exhausted, _) -> Obs.Metrics.incr t.c_shed
      | Rejected _ -> ());
      verdict
    end

(* ------------------------------------------------------------------ *)
(* Store-backed row persistence (best effort) *)

let encode_row row =
  let buf = Buffer.create (4 + (4 * Array.length row)) in
  Buffer.add_string buf "ROW1";
  let put v =
    let v = if v < 0 || v >= 0xFFFFFFFF then 0xFFFFFFFF else v in
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  in
  Array.iter put row;
  Buffer.contents buf

let decode_row ~n bytes =
  if String.length bytes <> 4 + (4 * n) || String.sub bytes 0 4 <> "ROW1" then
    None
  else
    Some
      (Array.init n (fun i ->
           let o = 4 + (4 * i) in
           let v =
             (Char.code bytes.[o] lsl 24)
             lor (Char.code bytes.[o + 1] lsl 16)
             lor (Char.code bytes.[o + 2] lsl 8)
             lor Char.code bytes.[o + 3]
           in
           if v = 0xFFFFFFFF then max_int else v))

let row_key spec ~source ~backend =
  Store.Key.derive
    ~exp_id:
      (Printf.sprintf "serve.row/%s/src=%d" (Corpus.spec_to_string spec) source)
    ~seed:spec.Corpus.seed ~quick:false ~backend

let retryable = function
  | Fault.Inject.Injected { retryable; _ } -> retryable
  | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

let store_budget_s = 0.25

let with_store_retry t f =
  Fault.Retry.with_backoff ~jitter:0.5 ~jitter_seed:t.cfg.jitter_seed
    ~budget_s:store_budget_s ~retryable
    ~on_retry:(fun _ _ -> ())
    f

let store_get t job =
  match (t.cfg.store, job.j_spec) with
  | None, _ | _, None -> None
  | Some store, Some spec -> (
    let key =
      row_key spec ~source:job.j_source
        ~backend:(Sim.Backend.to_string (Corpus.backend t.corpus))
    in
    match with_store_retry t (fun _ -> Store.Objects.get store ~key) with
    | Some (bytes, entry) -> (
      let n = Temporal.Tgraph.n job.j_net in
      match decode_row ~n bytes with
      | Some row -> Some row
      | None ->
        (* Content address held but the payload is not a row of the
           expected shape (schema drift): quarantine so a fresh put
           repopulates, and treat as a miss. *)
        (try Store.Objects.quarantine store entry with _ -> ());
        None)
    | None -> None
    | exception _ -> None)

let store_put t job row =
  match (t.cfg.store, job.j_spec) with
  | None, _ | _, None -> ()
  | Some store, Some spec -> (
    let key =
      row_key spec ~source:job.j_source
        ~backend:(Sim.Backend.to_string (Corpus.backend t.corpus))
    in
    let meta =
      [
        ("kind", "serve.row");
        ("instance", job.j_instance);
        ("source", string_of_int job.j_source);
      ]
    in
    try
      ignore
        (with_store_retry t (fun _ ->
             Store.Objects.put store ~key ~meta (encode_row row)))
    with _ -> ())

(* ------------------------------------------------------------------ *)
(* Row computation *)

(* Compute rows for [sources] of one instance, {!Temporal.Batch.arrival_lanes}
   sources per word-parallel sweep, one pool task per lane group.
   [still_wanted src] is the cooperative-cancellation probe: checked
   immediately before each sweep, so a group whose every waiter has
   expired is skipped.  Returns [rows.(i) = Some row] in [sources]
   order. *)
let compute_rows net sources ~still_wanted =
  let n = Temporal.Tgraph.n net in
  let lanes = Temporal.Batch.arrival_lanes ~n in
  let k = Array.length sources in
  (* Bumped from pool worker domains — must be atomic. *)
  let sweeps = Atomic.make 0 in
  let per_group =
    Exec.Pool.map_range (Exec.Pool.global ()) ~lo:0 ~hi:((k + lanes - 1) / lanes)
      (fun g ->
        let lo = g * lanes in
        let srcs = Array.sub sources lo (min lanes (k - lo)) in
        if not (Array.exists still_wanted srcs) then Array.map (fun _ -> None) srcs
        else begin
          Atomic.incr sweeps;
          let b = Temporal.Batch.sweep net ~sources:srcs in
          Array.mapi
            (fun lane _ ->
              let row = Array.make n 0 in
              Temporal.Batch.arrivals_into b ~lane row;
              Some row)
            srcs
        end)
  in
  (Array.concat (Array.to_list per_group), Atomic.get sweeps)

(* One dispatch cycle: take the whole queue and answer every job taken.
   Runs on an awaiting thread (see [await]); must never raise. *)
let process_pending t =
  Mutex.lock t.qm;
  let jobs = Queue.fold (fun acc j -> j :: acc) [] t.queue in
  Queue.clear t.queue;
  t.queue_len <- 0;
  Mutex.unlock t.qm;
  Obs.Metrics.set t.g_depth 0.;
  let jobs = List.rev jobs in
  (* Group by instance, preserving arrival order inside each group. *)
  let by_instance : (string, job list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun j ->
      match Hashtbl.find_opt by_instance j.j_instance with
      | Some r -> r := j :: !r
      | None ->
        Hashtbl.add by_instance j.j_instance (ref [ j ]);
        order := j.j_instance :: !order)
    jobs;
  let expired_total = ref 0 in
  let handle_instance id =
    let group = List.rev !(Hashtbl.find by_instance id) in
    let now = Obs.Clock.wall_s () in
    let expired, live =
      List.partition (fun j -> now > j.j_deadline) group
    in
    List.iter
      (fun j ->
        incr expired_total;
        resolve t j.j_ticket (Err (Proto.Deadline_exceeded, "expired in queue")))
      expired;
    if live <> [] then begin
      (* Cache, then store, then compute. *)
      let cache_hits = ref 0 and store_hits = ref 0 and evictions = ref 0 in
      let misses = ref [] in
      List.iter
        (fun j ->
          match Hashtbl.find_opt t.cache (j.j_instance, j.j_source) with
          | Some node ->
            incr cache_hits;
            (* Touch: a hit moves the node to the recency front, so
               hot rows in a skewed mix outlive one-shot scans. *)
            lru_unlink node;
            lru_push_front t.cache_lru node;
            resolve t j.j_ticket (Row node.lru_row)
          | None -> misses := j :: !misses)
        live;
      let insert_cache key row =
        if t.cfg.cache_max > 0 && not (Hashtbl.mem t.cache key) then begin
          if Hashtbl.length t.cache >= t.cfg.cache_max then begin
            let victim = t.cache_lru.lru_prev in
            if victim != t.cache_lru then begin
              lru_unlink victim;
              Hashtbl.remove t.cache victim.lru_key;
              incr evictions
            end
          end;
          let node =
            {
              lru_key = key;
              lru_row = row;
              lru_prev = t.cache_lru;
              lru_next = t.cache_lru;
            }
          in
          Hashtbl.add t.cache key node;
          lru_push_front t.cache_lru node
        end
      in
      let misses = List.rev !misses in
      let after_store = ref [] in
      List.iter
        (fun j ->
          match store_get t j with
          | Some row ->
            incr store_hits;
            insert_cache (j.j_instance, j.j_source) row;
            resolve t j.j_ticket (Row row)
          | None -> after_store := j :: !after_store)
        misses;
      let pending = List.rev !after_store in
      (* Dedupe sources; remember which jobs wait on each. *)
      let waiters : (int, job list ref) Hashtbl.t = Hashtbl.create 16 in
      let sources = ref [] in
      List.iter
        (fun j ->
          match Hashtbl.find_opt waiters j.j_source with
          | Some r -> r := j :: !r
          | None ->
            Hashtbl.add waiters j.j_source (ref [ j ]);
            sources := j.j_source :: !sources)
        pending;
      let sources = Array.of_list (List.rev !sources) in
      if Array.length sources > 0 then begin
        let net = (List.hd pending).j_net in
        let still_wanted src =
          let now = Obs.Clock.wall_s () in
          List.exists
            (fun j -> now <= j.j_deadline)
            !(Hashtbl.find waiters src)
        in
        match compute_rows net sources ~still_wanted with
        | rows, sweeps ->
          t.n_sweeps <- t.n_sweeps + sweeps;
          Obs.Metrics.add t.c_sweeps sweeps;
          Array.iteri
            (fun i src ->
              let js = List.rev !(Hashtbl.find waiters src) in
              match rows.(i) with
              | Some row ->
                insert_cache (id, src) row;
                store_put t (List.hd js) row;
                List.iter (fun j -> resolve t j.j_ticket (Row row)) js
              | None ->
                (* Skipped by cooperative cancellation: every waiter
                   had expired when the sweep was due. *)
                List.iter
                  (fun j ->
                    incr expired_total;
                    resolve t j.j_ticket
                      (Err (Proto.Deadline_exceeded, "expired before sweep")))
                  js)
            sources
        | exception e ->
          let msg = Printexc.to_string e in
          Array.iter
            (fun src ->
              List.iter
                (fun j -> resolve t j.j_ticket (Err (Proto.Internal, msg)))
                !(Hashtbl.find waiters src))
            sources
      end;
      Mutex.lock t.qm;
      t.n_cache_hits <- t.n_cache_hits + !cache_hits;
      t.n_store_hits <- t.n_store_hits + !store_hits;
      t.n_evictions <- t.n_evictions + !evictions;
      Mutex.unlock t.qm;
      if !cache_hits > 0 then Obs.Metrics.add t.c_cache_hits !cache_hits;
      if !evictions > 0 then Obs.Metrics.add t.c_evictions !evictions
    end
  in
  (* An exception escaping an instance group must not leave a ticket
     unresolved (the connection thread would hang): answer everything
     in the group with Internal — already-resolved tickets keep their
     first answer. *)
  List.iter
    (fun id ->
      try handle_instance id
      with e ->
        let msg = Printexc.to_string e in
        List.iter
          (fun j -> resolve t j.j_ticket (Err (Proto.Internal, msg)))
          (List.rev !(Hashtbl.find by_instance id)))
    (List.rev !order);
  if !expired_total > 0 then begin
    Mutex.lock t.qm;
    t.n_expired <- t.n_expired + !expired_total;
    Mutex.unlock t.qm;
    Obs.Metrics.add t.c_expired !expired_total
  end

(* ------------------------------------------------------------------ *)
(* Flat combining: the threads that wait for answers run the cycles *)

(* Called, and returns, with [qm] held.  [running] keeps every other
   thread from starting a cycle meanwhile; the closing broadcast wakes
   them to re-check, however the cycle ends. *)
let run_cycle t =
  t.running <- true;
  (* Coalescing window: let concurrent clients pile onto this cycle.
     Skipped while draining — flush fast. *)
  let window = if t.accepting then t.cfg.batch_window_s else 0. in
  Mutex.unlock t.qm;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.qm;
      t.running <- false;
      Condition.broadcast t.qc)
    (fun () ->
      if window > 0. then Thread.delay window;
      process_pending t)

(* An unanswered job is either still queued or inside the running
   cycle.  So a thread that finds no cycle running runs one, and that
   cycle takes its own job: no thread runs more than one cycle per
   query. *)
let await ticket =
  let t = ticket.engine in
  Mutex.protect t.qm (fun () ->
      let rec wait () =
        match ticket.result with
        | Some r -> r
        | None ->
          if (not t.running) && t.queue_len > 0 then run_cycle t
          else Condition.wait t.qc t.qm;
          wait ()
      in
      wait ())

let start (_ : t) = ()

let drain t =
  Mutex.protect t.qm (fun () ->
      t.accepting <- false;
      while t.running || t.queue_len > 0 do
        if t.running then Condition.wait t.qc t.qm else run_cycle t
      done)
