(* The `ephemeral serve` front end: accept loop, per-connection reader
   threads, the control plane, and the graceful-drain state machine —
   in front of a handler that answers the queries.  The handler is the
   local {!Engine} ({!run}) or the sharded {!Router}'s frame forwarder;
   either way, everything below exists once.

   Listening address: a filesystem path (Unix domain socket) or
   ["tcp:HOST:PORT"].  Each accepted connection gets one systhread
   that reads frames through its own {!Proto.reader} under the
   per-frame deadline (slow-loris bound) and writes one reply per
   frame, in order; connection count is bounded
   ([max_conns] — an over-limit accept is answered with one
   [Resource_exhausted] frame and closed, never queued).

   A frame {!Proto.peek_instance} routes goes to the handler's
   per-connection query path as raw bytes.  Every other frame is
   decoded here: PING, HEALTH, READY, LIST and STATS are answered from
   the handler's LIST rows and tallies, and a malformed or unknown
   request gets the decoder's typed error.

   Drain state machine (first SIGTERM/SIGINT via
   {!Fault.Shutdown.set_graceful}, or the {!run_background} stopper):

     accepting ──signal──▶ draining ──flush──▶ drained

   - the signal callback only flips the [draining] atomic and pokes
     the accept loop awake (handler context: no locks);
   - the accept thread then runs the drain: stop accepting, the
     handler's [quiesce], shutdown of surviving connection sockets
     (readers see EOF), join of connection threads, the final tallies,
     the handler's [finish], ledger publish via
     {!Store.Fsio.write_atomic} (atomic: a crashed drain leaves the
     previous ledger or none, never a torn one), socket unlink;
   - {!serve} returns normally, so the process exits 0 — the
     clean-drain contract the chaos soak asserts.  A second signal
     takes {!Fault.Shutdown}'s immediate path (exit 130/143), the
     escape hatch against a wedged drain.

   Degraded mode: a corpus with failed instances still serves — LIST
   shows them as failed, queries against them answer [Unavailable],
   HEALTH says "degraded".  Only a table with no available instance
   makes READY answer [Unavailable]. *)

type address = Unix_path of string | Tcp of string * int

let parse_address s =
  match String.index_opt s ':' with
  | Some _ when String.length s > 4 && String.sub s 0 4 = "tcp:" -> (
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error "tcp address must be tcp:HOST:PORT"
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad port %S" port)))
  | _ -> Ok (Unix_path s)

let address_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type config = {
  address : address;
  read_timeout_s : float;  (** per-frame deadline on connection reads *)
  ledger_path : string option;  (** published atomically on drain *)
  announce : out_channel option;
      (** where {!serve} prints the READY line once listening *)
}

let default_config =
  {
    address = Unix_path "ephemeral.sock";
    read_timeout_s = 10.;
    ledger_path = None;
    announce = Some stdout;
  }

let max_conns = 64

type session = { query : string -> string -> string; close : unit -> unit }

type handler = {
  rows : (string * string * string) list;
  backend : Sim.Backend.t;
  queue_max : int;
  session : unit -> session;
  tallies : unit -> Ledger.volatile;
  quiesce : unit -> unit;
  finish : unit -> unit;
}

(* ------------------------------------------------------------------ *)

type conn = { c_id : int; c_fd : Unix.file_descr }

type t = {
  cfg : config;
  handler : handler;
  listen_fd : Unix.file_descr;
  draining : bool Atomic.t;
  cm : Mutex.t;
  mutable conns : conn list;
  mutable conn_threads : Thread.t list;
  mutable next_conn : int;
  started_at : float;
}

(* Wake a thread blocked in accept(2).  Closing the listener does not
   reliably unblock accept on Linux, and the signal that initiated the
   drain may have been delivered to a different thread — so connect to
   ourselves: accept returns the dummy connection, the loop re-checks
   [draining] and exits.  Failure is fine (nobody was blocked). *)
let wake_listener t =
  try
    let domain, addr =
      match t.cfg.address with
      | Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
      | Tcp (_, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd addr with _ -> ());
    Unix.close fd
  with _ -> ()

let stop t =
  Atomic.set t.draining true;
  wake_listener t

(* ------------------------------------------------------------------ *)
(* Control plane *)

let health rows =
  let any status = List.exists (fun (_, s, _) -> s = status) rows in
  if not (any "available") then "unhealthy"
  else if any "failed" then "degraded"
  else "ok"

let control t req =
  let rows = t.handler.rows in
  match (req : Proto.request) with
  | Proto.Ping -> Proto.Ok_empty
  | Proto.Health -> Proto.Ok_text (health rows)
  | Proto.Ready ->
    if Atomic.get t.draining then
      Proto.Error (Proto.Shutting_down, "draining")
    else if health rows = "unhealthy" then
      Proto.Error (Proto.Unavailable, "no healthy instances")
    else Proto.Ok_text "ready"
  | Proto.List -> Proto.Ok_list rows
  | Proto.Stats -> Proto.Ok_text (Ledger.render_stats_text (t.handler.tallies ()))
  | Proto.Foremost _ | Proto.Arrivals _ | Proto.Reach _ | Proto.Ecc _ ->
    (* Unreachable: every decodable query peeks. *)
    Proto.Error (Proto.Internal, "query reached control path")

let answer t session payload =
  try
    match Proto.peek_instance payload with
    | Some instance -> session.query instance payload
    | None ->
      Proto.encode_response
        (match Proto.decode_request payload with
        | Error (code, msg) -> Proto.Error (code, msg)
        | Ok req -> control t req)
  with e ->
    Proto.encode_response (Proto.Error (Proto.Internal, Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Connections *)

let reply fd response = Proto.write_frame fd (Proto.encode_response response)

let conn_loop t conn =
  let session = t.handler.session () in
  let frames = Proto.reader conn.c_fd in
  let rec loop () =
    match Proto.next_frame ~deadline_s:t.cfg.read_timeout_s frames with
    | Proto.Eof -> ()
    | Proto.Timeout ->
      (* Slow loris: the peer stalled mid-frame.  The stream is not at
         a frame boundary, so the only safe move is to close. *)
      ()
    | Proto.Oversized k ->
      (* Header read, payload not: also out of sync — answer and
         close. *)
      (try
         reply conn.c_fd
           (Proto.Error
              ( Proto.Too_large,
                Printf.sprintf "frame of %d bytes exceeds limit %d" k
                  Proto.max_frame ))
       with _ -> ())
    | Proto.Frame payload ->
      Proto.write_frame conn.c_fd (answer t session payload);
      loop ()
  in
  (try loop () with _ -> ());
  session.close ();
  (try Unix.close conn.c_fd with _ -> ());
  Mutex.lock t.cm;
  t.conns <- List.filter (fun c -> c.c_id <> conn.c_id) t.conns;
  Mutex.unlock t.cm

let spawn_conn t fd =
  Mutex.lock t.cm;
  let over = List.length t.conns >= max_conns in
  let conn = { c_id = t.next_conn; c_fd = fd } in
  if not over then begin
    t.next_conn <- t.next_conn + 1;
    t.conns <- conn :: t.conns
  end;
  Mutex.unlock t.cm;
  if over then begin
    (* Bounded connection table: answer with one typed frame and
       close; nothing about this connection is retained. *)
    (try
       reply fd
         (Proto.Error (Proto.Resource_exhausted, "connection limit reached"))
     with _ -> ());
    try Unix.close fd with _ -> ()
  end
  else begin
    let th = Thread.create (fun () -> conn_loop t conn) () in
    Mutex.lock t.cm;
    t.conn_threads <- th :: t.conn_threads;
    Mutex.unlock t.cm
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

(* Latency percentiles come from [serve.latency_ms] — the engine's
   submit→reply histogram, or the router's forward round trip — and
   rates from the elapsed monotonic time, here and nowhere else. *)
let ledger_json t (v : Ledger.volatile) ~wall_s =
  let h = Obs.Metrics.histogram "serve.latency_ms" in
  let observed = Obs.Metrics.observations h > 0 in
  let p q = if observed then Obs.Metrics.percentile h q else 0. in
  let qps = if wall_s > 0. then float_of_int v.Ledger.queries /. wall_s else 0. in
  Ledger.render
    ~backend:(Sim.Backend.to_string t.handler.backend)
    ~queue_max:t.handler.queue_max ~instances:t.handler.rows
    { v with Ledger.p50_ms = p 0.5; p99_ms = p 0.99; qps; wall_s }

let bind_listener address =
  match address with
  | Unix_path path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    fd

let drain t =
  Atomic.set t.draining true;
  (try Unix.close t.listen_fd with _ -> ());
  (* The handler settles its own work first: the engine answers every
     admitted job, so tickets held by connection threads resolve and
     their pending writes complete. *)
  t.handler.quiesce ();
  (* Surviving connections are idle readers (or writers about to
     finish): shut their sockets so reads see EOF.  shutdown, not
     close — the thread owns the close, so the descriptor cannot be
     recycled under it. *)
  Mutex.lock t.cm;
  let conns = t.conns and threads = t.conn_threads in
  Mutex.unlock t.cm;
  List.iter
    (fun c -> try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ())
    conns;
  List.iter (fun th -> try Thread.join th with _ -> ()) threads;
  (* No client traffic is left: the tallies are final. *)
  let v = t.handler.tallies () in
  t.handler.finish ();
  (* Publish the ledger last, atomically: a crash mid-drain leaves the
     previous file or none — never a torn one. *)
  let wall_s = Obs.Clock.wall_s () -. t.started_at in
  (match t.cfg.ledger_path with
  | None -> ()
  | Some path -> (
    try Store.Fsio.write_atomic path (ledger_json t v ~wall_s) with _ -> ()));
  match t.cfg.address with
  | Unix_path path -> ( try Unix.unlink path with _ -> ())
  | Tcp _ -> ()

let accept_loop t =
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.accept t.listen_fd with
      | fd, _ ->
        spawn_conn t fd;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* Listener closed under us. *)
        ()
      | exception _ when Atomic.get t.draining -> ()
  in
  loop ()

let listen config handler =
  (* A client disconnecting mid-write must surface as EPIPE on the
     write, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    cfg = config;
    handler;
    listen_fd = bind_listener config.address;
    draining = Atomic.make false;
    cm = Mutex.create ();
    conns = [];
    conn_threads = [];
    next_conn = 0;
    started_at = Obs.Clock.wall_s ();
  }

let serve t =
  Fault.Shutdown.install ();
  (* The callback only flips the atomic and pokes the accept thread
     awake; the accept thread then runs the actual drain.  (OCaml
     signal handlers run at safepoints as ordinary code — the
     constraint is not taking locks the interrupted thread may hold,
     and neither step does.) *)
  Fault.Shutdown.set_graceful (fun _ -> stop t);
  (match t.cfg.announce with
  | Some oc ->
    Printf.fprintf oc "READY %s\n" (address_to_string t.cfg.address);
    flush oc
  | None -> ());
  accept_loop t;
  drain t

(* ------------------------------------------------------------------ *)
(* The local engine as a handler *)

let max_vector = (Proto.max_frame - 16) / 4

let with_row engine (q : Proto.query) readout =
  let deadline_s =
    if q.Proto.deadline_ms > 0 then
      Some (float_of_int q.Proto.deadline_ms /. 1000.)
    else None
  in
  match
    Engine.submit engine ~instance:q.Proto.instance ~source:q.Proto.source
      ?deadline_s ()
  with
  | Engine.Rejected (code, msg) -> Proto.Error (code, msg)
  | Engine.Admitted ticket -> (
    match Engine.await ticket with
    | Engine.Err (code, msg) -> Proto.Error (code, msg)
    | Engine.Row row -> readout row)

let local_query engine payload =
  match Proto.decode_request payload with
  | Error (code, msg) -> Proto.Error (code, msg)
  | Ok (Proto.Foremost q) ->
    with_row engine q (fun row ->
        if q.Proto.target < 0 || q.Proto.target >= Array.length row then
          Proto.Error
            ( Proto.Bad_arg,
              Printf.sprintf "target %d out of range [0, %d)" q.Proto.target
                (Array.length row) )
        else
          Proto.Ok_value
            (if row.(q.Proto.target) = max_int then None
             else Some row.(q.Proto.target)))
  | Ok (Proto.Arrivals q) ->
    with_row engine q (fun row ->
        if Array.length row > max_vector then
          Proto.Error
            ( Proto.Too_large,
              Printf.sprintf "arrival vector of %d entries exceeds frame limit"
                (Array.length row) )
        else Proto.Ok_vector row)
  | Ok (Proto.Reach q) ->
    with_row engine q (fun row ->
        let c = ref 0 in
        Array.iter (fun v -> if v <> max_int then incr c) row;
        Proto.Ok_count !c)
  | Ok (Proto.Ecc q) ->
    with_row engine q (fun row ->
        let m = ref 0 and unreachable = ref false in
        Array.iter
          (fun v -> if v = max_int then unreachable := true else m := max !m v)
          row;
        Proto.Ok_value (if !unreachable then None else Some !m))
  | Ok (Proto.Ping | Proto.Health | Proto.Ready | Proto.List | Proto.Stats) ->
    (* Unreachable: control ops never peek. *)
    Proto.Error (Proto.Internal, "control op reached the query path")

let listen_local ?(config = default_config) ?(engine = Engine.default_config)
    corpus =
  let e = Engine.create ~config:engine corpus in
  let session =
    {
      query = (fun _ payload -> Proto.encode_response (local_query e payload));
      close = ignore;
    }
  in
  listen config
    {
      rows = Corpus.list_rows corpus;
      backend = Corpus.backend corpus;
      queue_max = engine.Engine.queue_max;
      session = (fun () -> session);
      tallies = (fun () -> Ledger.of_stats (Engine.stats e));
      quiesce = (fun () -> Engine.drain e);
      finish = ignore;
    }

let run ?config ?engine corpus = serve (listen_local ?config ?engine corpus)

let run_background ?config ?engine corpus =
  let t = listen_local ?config ?engine corpus in
  let th =
    Thread.create
      (fun () ->
        accept_loop t;
        drain t)
      ()
  in
  fun () ->
    stop t;
    Thread.join th
