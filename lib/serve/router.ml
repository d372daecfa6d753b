(* The sharded `ephemeral serve --shards N` parent: a {!Server.handler}
   that forwards query frames to N shard-worker processes.

   Topology.  Each shard is the binary re-exec'd with the router's own
   argv plus [--shard-index K]: it loads only the manifest lines whose
   id hashes to K ({!Corpus.shard_of}) and serves them on the private
   socket [Shard.path public K], with its own Exec pool, row cache,
   and store handle.  The front end ({!Server}) owns the public
   socket, the connections and the control plane; this module only
   adds the query path and the drain hooks:

   - query frames are routed by {!Proto.peek_instance} — the instance
     id read from the payload's fixed prefix — and the request/reply
     bytes cross the router *untouched* (no decode, no re-encode), so
     reply byte-identity at any shard count is structural;
   - the control plane answers from the handler's LIST rows — the
     startup snapshot of every shard's LIST, merged back into manifest
     order — and its tallies, the sum of every live shard's STATS;
   - unroutable frames are decoded by the front end, so their error
     bytes are the ones a single-process server would write.

   Each connection keeps its own lazily-connected fd per shard, so
   replies need no multiplexing and per-client ordering is the stream
   order — the same contract as the single-process server.

   Supervision.  A supervisor thread reaps crashed shards (a WNOHANG
   scan every tick) and respawns them under
   {!Fault.Retry.backoff_delay} with a bounded budget; a shard that
   keeps dying is left down for good.  While a shard is down its
   queries answer a typed UNAVAILABLE — never a hang, never a torn
   frame.  The supervisor is also the shard-kill
   fault site: with [shard_kill > 0] it rolls
   [Plan.roll ~site:"serve.shard_kill" ~a:tick ~b:shard] and SIGKILLs
   live shards, which is how the chaos soak exercises crash-respawn
   under live traffic.

   Drain.  The front end's drain calls [quiesce] (join the
   supervisor, so no respawn or fault kill races the shutdown), shuts
   the client connections, reads the final tallies from every live
   shard, then [finish]: SIGTERM to each shard, which drains and
   writes its own per-shard ledger.  The merged ledger's
   deterministic section — backend, queue bound, manifest-ordered
   instance table — is byte-identical at any shard count. *)

type config = {
  server : Server.config;
  shards : int;
  shard_argv : int -> string array;  (* argv to (re)spawn shard k *)
  queue_max : int;  (* shards' admission bound, for the ledger *)
  manifest_ids : string list;  (* ids in manifest order, for the merge *)
  backend : Sim.Backend.t;
  fault : Fault.Plan.t;
}

let shard_call_timeout_s = 30. (* per-reply deadline on shard reads *)
let shard_ready_timeout_s = 30.

(* Generous: the chaos soak's shard-kill fault can land several
   early-uptime kills in a row, each of which counts against this
   budget. *)
let max_respawns = 20

type shard_state =
  | Live of { pid : int; since : float; crashes : int }
  | Down of { crashes : int; next_try : float }
  | Dead  (* respawn budget exhausted *)

type slot = { index : int; socket : string; mutable state : shard_state }

type t = {
  cfg : config;
  stopping : bool Atomic.t;  (* stops the supervisor *)
  sm : Mutex.t;  (* guards slots' state *)
  slots : slot array;
  mutable supervisor : Thread.t option;
  h_latency : Obs.Metrics.histogram;  (* end-to-end, router side *)
}

(* ------------------------------------------------------------------ *)
(* LIST snapshot merge

   Each shard lists only its partition, in its own manifest-relative
   order.  Re-interleaving by the full manifest id sequence restores
   the exact single-process LIST — duplicate ids consume their shard's
   rows in order, so even a manifest that repeats an id merges
   stably.  An id no shard reported (a shard that died before its
   snapshot) is kept as a failed row rather than dropped, so the table
   always has one row per manifest line. *)

let merge_list_rows ~manifest_ids per_shard_rows =
  let queues : (string, (string * string * string) Queue.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (List.iter (fun ((id, _, _) as row) ->
         let q =
           match Hashtbl.find_opt queues id with
           | Some q -> q
           | None ->
             let q = Queue.create () in
             Hashtbl.add queues id q;
             q
         in
         Queue.push row q))
    per_shard_rows;
  List.map
    (fun id ->
      match Hashtbl.find_opt queues id with
      | Some q when not (Queue.is_empty q) -> Queue.pop q
      | _ -> (id, "failed", "shard unavailable at snapshot"))
    manifest_ids

(* ------------------------------------------------------------------ *)
(* Shard calls (router-initiated: snapshot, stats fan-out) *)

let call_shard socket request =
  match Client.connect ~timeout_s:1.0 (Server.Unix_path socket) with
  | Error m -> Error m
  | Ok c ->
    let r = Client.call ~timeout_s:shard_call_timeout_s c request in
    Client.close c;
    r

let live t slot =
  Mutex.lock t.sm;
  let r = match slot.state with Live _ -> true | Down _ | Dead -> false in
  Mutex.unlock t.sm;
  r

(* The sum of every live shard's STATS. *)
let tallies t =
  Array.to_list t.slots
  |> List.filter_map (fun slot ->
         if not (live t slot) then None
         else
           match call_shard slot.socket Proto.Stats with
           | Ok (Proto.Ok_text s) -> Ledger.parse_stats_text s
           | _ -> None)
  |> Ledger.merge_volatile ~shards:t.cfg.shards

(* ------------------------------------------------------------------ *)
(* Lifecycle: spawn, supervise *)

let spawn_slot t slot ~crashes =
  let pid = Shard.spawn (t.cfg.shard_argv slot.index) in
  slot.state <- Live { pid; since = Obs.Clock.wall_s (); crashes }

let kill_roll_site = "serve.shard_kill"

(* One supervision pass: reap exits, schedule/execute respawns, roll
   the shard-kill fault.  Runs under [t.sm]. *)
let supervise_tick t ~tick =
  let now = Obs.Clock.wall_s () in
  Array.iter
    (fun slot ->
      match slot.state with
      | Live { pid; since; crashes } -> (
        match Shard.poll_exit pid with
        | Some _status ->
          (* A shard that stayed up a while earned its crash count
             back: only rapid crash loops exhaust the budget. *)
          let crashes = if now -. since >= 5. then 1 else crashes + 1 in
          if crashes > max_respawns then slot.state <- Dead
          else begin
            let delay =
              Fault.Retry.backoff_delay ~base_delay_s:0.05 ~max_delay_s:1.
                ~jitter:0.5
                ~jitter_seed:(Int64.of_int slot.index)
                (crashes - 1)
            in
            slot.state <- Down { crashes; next_try = now +. delay }
          end
        | None ->
          if
            t.cfg.fault.Fault.Plan.shard_kill > 0.
            && Fault.Plan.roll t.cfg.fault ~site:kill_roll_site ~a:tick
                 ~b:slot.index
               < t.cfg.fault.Fault.Plan.shard_kill
          then try Unix.kill pid Sys.sigkill with _ -> ())
      | Down { crashes; next_try } when now >= next_try ->
        (try spawn_slot t slot ~crashes
         with _ -> slot.state <- Down { crashes; next_try = now +. 1. })
      | Down _ | Dead -> ())
    t.slots

let supervisor_loop t =
  let tick = ref 0 in
  while not (Atomic.get t.stopping) do
    Thread.delay 0.05;
    if not (Atomic.get t.stopping) then begin
      incr tick;
      Mutex.lock t.sm;
      supervise_tick t ~tick:!tick;
      Mutex.unlock t.sm
    end
  done

(* ------------------------------------------------------------------ *)
(* The query path *)

let unavailable k =
  Proto.encode_response
    (Proto.Error (Proto.Unavailable, Printf.sprintf "shard %d unavailable" k))

(* Per-connection shard links, each a frame reader over its socket,
   connected on first use and dropped on any stream error (a reply
   stream that timed out or died mid-frame is out of sync — the only
   safe move is a fresh connection). *)
type links = (int, Proto.reader) Hashtbl.t

let link t (links : links) k =
  match Hashtbl.find_opt links k with
  | Some r -> Some r
  | None when not (live t t.slots.(k)) -> None
  | None -> (
    match
      Client.connect ~timeout_s:0.25 (Server.Unix_path t.slots.(k).socket)
    with
    | Error _ -> None
    | Ok c ->
      let r = Proto.reader (Client.fd c) in
      Hashtbl.replace links k r;
      Some r)

let close_link r = try Unix.close (Proto.reader_fd r) with _ -> ()

let drop_link (links : links) k =
  match Hashtbl.find_opt links k with
  | Some r ->
    Hashtbl.remove links k;
    close_link r
  | None -> ()

(* Forward one request payload to shard [k] and relay the raw reply
   bytes.  Every failure mode answers a typed UNAVAILABLE — a dead
   shard must never hang the client or leave it a torn frame. *)
let forward t links k payload =
  match link t links k with
  | None -> unavailable k
  | Some r -> (
    match Proto.write_frame (Proto.reader_fd r) payload with
    | exception _ ->
      drop_link links k;
      unavailable k
    | () -> (
      match Proto.next_frame ~deadline_s:shard_call_timeout_s r with
      | Proto.Frame bytes -> bytes
      | Proto.Eof | Proto.Timeout | Proto.Oversized _ ->
        drop_link links k;
        unavailable k))

let session t () =
  let links : links = Hashtbl.create 4 in
  {
    Server.query =
      (fun instance payload ->
        let t0 = Obs.Clock.wall_s () in
        let r =
          forward t links (Corpus.shard_of ~shards:t.cfg.shards instance) payload
        in
        Obs.Metrics.observe t.h_latency ((Obs.Clock.wall_s () -. t0) *. 1000.);
        r);
    close = (fun () -> Hashtbl.iter (fun _ r -> close_link r) links);
  }

(* ------------------------------------------------------------------ *)
(* Drain hooks *)

(* Supervisor first: no respawns or fault kills may race the shutdown
   cascade, and joining it leaves the draining thread the only
   reaper. *)
let quiesce t =
  Atomic.set t.stopping true;
  Option.iter Thread.join t.supervisor;
  t.supervisor <- None

let cascade t =
  Array.iter
    (fun slot ->
      match slot.state with
      | Live { pid; _ } ->
        ignore (Shard.terminate ~timeout_s:10. pid);
        slot.state <- Dead
      | Down _ | Dead -> ())
    t.slots

(* ------------------------------------------------------------------ *)
(* Run *)

let run config =
  if config.shards < 1 then invalid_arg "Router.run: shards must be >= 1";
  let public =
    match config.server.Server.address with
    | Server.Unix_path p -> p
    | Server.Tcp _ -> invalid_arg "Router.run: shards need a Unix-socket address"
  in
  (* Shard calls start before the front end exists: a shard dying
     mid-write must surface as EPIPE, not kill the router. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      cfg = config;
      stopping = Atomic.make false;
      sm = Mutex.create ();
      slots =
        Array.init config.shards (fun k ->
            { index = k; socket = Shard.path public k; state = Dead });
      supervisor = None;
      h_latency = Obs.Metrics.histogram "serve.latency_ms";
    }
  in
  (* Spawn everything first, then wait: shard startups overlap. *)
  Array.iter (fun slot -> spawn_slot t slot ~crashes:0) t.slots;
  let kill_all () =
    Array.iter
      (fun slot ->
        match slot.state with
        | Live { pid; _ } -> ignore (Shard.terminate ~timeout_s:2. pid)
        | Down _ | Dead -> ())
      t.slots
  in
  let not_ready =
    Array.to_list t.slots
    |> List.filter_map (fun slot ->
           match Shard.wait_ready ~timeout_s:shard_ready_timeout_s slot.socket with
           | Ok () -> None
           | Error m -> Some m)
  in
  match not_ready with
  | m :: _ ->
    kill_all ();
    Error m
  | [] -> (
    (* Startup LIST snapshot: one merged, manifest-ordered instance
       table that serves HEALTH/READY/LIST and the deterministic
       ledger section for the whole run. *)
    let per_shard_rows =
      Array.to_list t.slots
      |> List.map (fun slot ->
             match call_shard slot.socket Proto.List with
             | Ok (Proto.Ok_list rows) -> rows
             | _ -> [])
    in
    let handler =
      {
        Server.rows = merge_list_rows ~manifest_ids:config.manifest_ids per_shard_rows;
        backend = config.backend;
        queue_max = config.queue_max;
        session = session t;
        tallies = (fun () -> tallies t);
        quiesce = (fun () -> quiesce t);
        finish = (fun () -> cascade t);
      }
    in
    match Server.listen config.server handler with
    | exception e ->
      kill_all ();
      Error (Printexc.to_string e)
    | srv ->
      t.supervisor <- Some (Thread.create supervisor_loop t);
      Server.serve srv;
      Ok ())
