(** Wire protocol of [ephemeral serve]: length-prefixed binary frames.

    Framing: 4-byte big-endian payload length, then the payload,
    capped at {!max_frame} so a hostile peer cannot force unbounded
    allocation.  Payload integers are big-endian u32 with
    [0xFFFF_FFFF] as the none/unreachable sentinel; strings are
    u16-length-prefixed.  Encoding is a pure function of the value —
    scripted sessions byte-diff across job counts and backends.

    Frame reads take a deadline enforced with select(2) before every
    read(2), so a slow-loris peer occupies one connection for a
    bounded time.  A long-lived connection reads through a {!reader}:
    one read(2) takes whatever has arrived, up to its 4 KiB buffer, so
    a request already in the socket costs one select and one read,
    and pipelined frames come out of one read.  {!read_frame} is the
    same loop for one-shot callers; it never takes a byte past its
    frame. *)

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

type reader
(** A connection's frame reader: its descriptor and a fixed 4 KiB
    buffer of bytes read but not yet returned.  One thread reads
    through it at a time. *)

val reader : Unix.file_descr -> reader
val reader_fd : reader -> Unix.file_descr

val next_frame : ?deadline_s:float -> reader -> read_result
(** The next frame, from the buffer when it holds one whole.  Each
    fill is one select(2), bounded by the deadline, and one read(2) of
    whatever has arrived.  [deadline_s] (default 30) bounds the whole
    frame, header included, from this call: bytes already buffered do
    not extend it.  [Oversized] comes from the header alone.  The
    header comes through the buffer; the payload takes what the buffer
    holds of it, and the rest is read straight into the payload — the
    buffer never grows.  After anything but [Frame] the stream is out
    of sync: close it. *)

val read_frame : ?deadline_s:float -> Unix.file_descr -> read_result
(** Read one frame with a reader whose buffer is one header long: a
    select and a read for the header, then a select and a read for
    the payload, and never a byte past the frame, so the next call
    (or another reader) starts at the next frame.  For callers that
    hold one request in flight. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame (blocking).  @raise Invalid_argument if the
    payload exceeds {!max_frame}.  Unix errors (EPIPE on a dead peer)
    propagate. *)

val render_response : response -> string
(** Deterministic one-line text rendering, used by [ephemeral query]
    scripted sessions and the soak log. *)
