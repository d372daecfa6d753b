(** The [ephemeral serve] front end: listener, per-connection reader
    threads, the control plane and the graceful-drain state machine
    (DESIGN.md §15), in front of a {!handler} that answers queries —
    the local {!Engine} ({!run}, {!run_background}) or the sharded
    {!Router}.

    A frame {!Proto.peek_instance} routes goes to the handler's
    per-connection {!session} as raw bytes.  Every other frame is
    decoded here: PING, HEALTH, READY, LIST and STATS are answered
    from the handler's [rows] and [tallies], malformed or unknown
    requests get the decoder's typed error.

    Drain: the first SIGTERM/SIGINT (via
    {!Fault.Shutdown.set_graceful}) flips an atomic and wakes the
    accept thread, which stops accepting, runs the handler's
    [quiesce], shuts down surviving connections, joins their threads,
    reads the final [tallies], runs the handler's [finish], publishes
    the run ledger atomically, unlinks the socket, and returns — so
    the process exits 0.  A second signal takes the immediate
    exit-130/143 path. *)

type address = Unix_path of string | Tcp of string * int

val parse_address : string -> (address, string) result
(** ["tcp:HOST:PORT"] is TCP; anything else is a Unix socket path. *)

val address_to_string : address -> string

type config = {
  address : address;
  read_timeout_s : float;  (** per-frame deadline on connection reads *)
  ledger_path : string option;  (** published atomically on drain *)
  announce : out_channel option;
      (** where {!serve} prints the ["READY <address>"] line once
          listening *)
}

val default_config : config

val max_conns : int
(** Connection-table bound (64); an over-limit accept is answered
    with one [Resource_exhausted] frame and closed. *)

type session = {
  query : string -> string -> string;
      (** [query instance frame] is the reply payload for one query
          frame whose peeked instance id is [instance] *)
  close : unit -> unit;  (** the connection ended *)
}

type handler = {
  rows : (string * string * string) list;
      (** the LIST reply, in manifest order; HEALTH, READY and the
          ledger's instance table derive from it *)
  backend : Sim.Backend.t;  (** for the ledger *)
  queue_max : int;  (** the admission bound, for the ledger *)
  session : unit -> session;  (** one per accepted connection *)
  tallies : unit -> Ledger.volatile;  (** STATS, and the ledger at drain *)
  quiesce : unit -> unit;
      (** drain, after accepting stops: settle in-flight work *)
  finish : unit -> unit;
      (** drain, after the final tallies are read: release what the
          handler holds *)
}

val health : (string * string * string) list -> string
(** The HEALTH text for LIST rows: ["unhealthy"] when none is
    available, ["degraded"] when any failed, else ["ok"].  READY
    answers [Unavailable] exactly when this is ["unhealthy"]. *)

type t

val listen : config -> handler -> t
(** Bind the listener (and ignore SIGPIPE).  Raises on a bind
    failure. *)

val serve : t -> unit
(** Arm the graceful-shutdown signals, announce, accept until the
    drain, and drain.  Blocks; returns after a complete drain. *)

val run : ?config:config -> ?engine:Engine.config -> Corpus.t -> unit
(** {!listen} then {!serve} with the local engine as the handler (the
    caller should then exit 0). *)

val run_background :
  ?config:config -> ?engine:Engine.config -> Corpus.t -> unit -> unit
(** The local server on a background thread, for tests and the bench
    harness: binds in the caller (a bind failure raises here), never
    installs signals, never announces.  The returned thunk initiates
    the drain and joins. *)
