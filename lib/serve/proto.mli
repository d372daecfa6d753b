(** Wire protocol of [ephemeral serve]: length-prefixed binary frames.

    Framing: 4-byte big-endian payload length, then the payload,
    capped at {!max_frame} so a hostile peer cannot force unbounded
    allocation.  Payload integers are big-endian u32 with
    [0xFFFF_FFFF] as the none/unreachable sentinel; strings are
    u16-length-prefixed.  Encoding is a pure function of the value —
    scripted sessions byte-diff across job counts and backends.

    Frame reads take a wall-clock deadline enforced with select(2)
    before every read(2), so a slow-loris peer occupies one connection
    for a bounded time. *)

val max_frame : int
(** Maximum payload size (1 MiB). *)

type query = {
  instance : string;
  source : int;
  target : int;  (** meaningful for [Foremost] only *)
  deadline_ms : int;  (** 0 = no deadline *)
}

type request =
  | Ping
  | Health
  | Ready
  | List
  | Stats
  | Foremost of query  (** earliest arrival source -> target *)
  | Arrivals of query  (** the source's full arrival vector *)
  | Reach of query  (** vertices reachable from the source *)
  | Ecc of query  (** temporal eccentricity of the source *)

type error_code =
  | Parse_error
  | Unknown_op
  | Unknown_instance
  | Unavailable  (** instance failed to load; server is degraded *)
  | Resource_exhausted  (** admission queue full — load shed *)
  | Deadline_exceeded
  | Shutting_down
  | Too_large
  | Bad_arg
  | Internal

type response =
  | Ok_empty
  | Ok_value of int option  (** foremost / ecc; [None] = unreachable *)
  | Ok_count of int
  | Ok_vector of int array  (** arrivals; [max_int] = unreachable *)
  | Ok_list of (string * string * string) list  (** id, status, detail *)
  | Ok_text of string
  | Error of error_code * string

val error_code_to_string : error_code -> string

val encode_request : request -> string
val decode_request : string -> (request, error_code * string) result

val peek_instance : string -> string option
(** The instance-id operand of a query-op request payload, read from
    the fixed prefix alone — what sends a frame down the handler's
    query path, and the sharded router's routing key.  [None] for
    control ops, unknown opcodes, and payloads too short to carry the
    id (which the front end decodes itself, so their error bytes are
    the same at any shard count). *)

val encode_response : response -> string

val decode_response : string -> (response, string) result
(** Client side; a decode failure is a protocol violation (the soak
    counts these). *)

type read_result =
  | Frame of string
  | Eof  (** peer closed before/inside a frame *)
  | Timeout  (** deadline elapsed mid-frame (slow loris) *)
  | Oversized of int  (** declared length exceeded {!max_frame} *)

val read_frame : ?deadline_s:float -> Unix.file_descr -> read_result
(** Read one frame.  [deadline_s] (default 30) bounds the whole frame,
    header included. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (blocking).  @raise Invalid_argument if the
    payload exceeds {!max_frame}.  Unix errors (EPIPE on a dead peer)
    propagate. *)

val render_response : response -> string
(** Deterministic one-line text rendering, used by [ephemeral query]
    scripted sessions and the soak log. *)
