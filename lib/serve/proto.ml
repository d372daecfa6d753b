(* Wire protocol of `ephemeral serve`: length-prefixed binary frames.

   A frame is a 4-byte big-endian payload length followed by the
   payload; payloads are capped (MAX_FRAME) so a hostile or broken
   peer cannot make the server allocate unboundedly.  Integers inside
   payloads are big-endian u32 with 0xFFFF_FFFF as the "none /
   unreachable" sentinel (arrival labels are bounded by the lifetime,
   far below it); strings are u16-length-prefixed bytes.

   Encoding is a pure function of the value — no timestamps, no
   process state — which is what makes scripted sessions byte-diffable
   across job counts and backends (the serve-smoke CI gate).

   Frame reads take a deadline: a peer that trickles bytes (slow
   loris) ties up one connection for at most [deadline_s] seconds,
   after which the read reports [`Timeout] and the server closes the
   connection.  A long-lived connection reads through a [reader], one
   4 KiB buffer per connection: a request already in the socket costs
   one select(2) and one read(2), and pipelined frames come out of one
   read.  One-shot [read_frame] is the same loop with a buffer one
   header long, so it never takes a byte past its frame.  Writes are
   plain blocking writes; a dead peer surfaces as EPIPE, which the
   connection loop treats as a drop. *)

let max_frame = 1 lsl 20 (* 1 MiB *)
let none_u32 = 0xFFFFFFFF

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
  | Unavailable
  | Resource_exhausted
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

let error_code_to_string = function
  | Parse_error -> "parse-error"
  | Unknown_op -> "unknown-op"
  | Unknown_instance -> "unknown-instance"
  | Unavailable -> "unavailable"
  | Resource_exhausted -> "resource-exhausted"
  | Deadline_exceeded -> "deadline-exceeded"
  | Shutting_down -> "shutting-down"
  | Too_large -> "too-large"
  | Bad_arg -> "bad-arg"
  | Internal -> "internal"

(* ------------------------------------------------------------------ *)
(* Byte-level helpers *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u16 buf v =
  if v < 0 || v > 0xFFFF then invalid_arg "Proto: u16 out of range";
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u32 buf v =
  if v < 0 || v > none_u32 then invalid_arg "Proto: u32 out of range";
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr (v land 0xFF))

let put_str buf s =
  put_u16 buf (String.length s);
  Buffer.add_string buf s

(* Encode an arrival-like label: [max_int] (and anything that cannot
   fit a u32) becomes the sentinel. *)
let put_label buf v = put_u32 buf (if v < 0 || v >= none_u32 then none_u32 else v)

exception Short

type cursor = { data : string; mutable pos : int }

let need c k = if c.pos + k > String.length c.data then raise Short

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = (Char.code c.data.[c.pos] lsl 8) lor Char.code c.data.[c.pos + 1] in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v =
    (Char.code c.data.[c.pos] lsl 24)
    lor (Char.code c.data.[c.pos + 1] lsl 16)
    lor (Char.code c.data.[c.pos + 2] lsl 8)
    lor Char.code c.data.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let get_str c =
  let k = get_u16 c in
  need c k;
  let s = String.sub c.data c.pos k in
  c.pos <- c.pos + k;
  s

let get_label c =
  let v = get_u32 c in
  if v = none_u32 then max_int else v

let at_end c = c.pos = String.length c.data

(* ------------------------------------------------------------------ *)
(* Requests *)

let op_ping = 0x01
and op_health = 0x02
and op_ready = 0x03
and op_list = 0x04
and op_stats = 0x05
and op_foremost = 0x10
and op_arrivals = 0x11
and op_reach = 0x12
and op_ecc = 0x13

let encode_query buf q =
  put_str buf q.instance;
  put_u32 buf q.source;
  put_u32 buf q.target;
  put_u32 buf q.deadline_ms

let encode_request r =
  let buf = Buffer.create 32 in
  (match r with
  | Ping -> put_u8 buf op_ping
  | Health -> put_u8 buf op_health
  | Ready -> put_u8 buf op_ready
  | List -> put_u8 buf op_list
  | Stats -> put_u8 buf op_stats
  | Foremost q -> put_u8 buf op_foremost; encode_query buf q
  | Arrivals q -> put_u8 buf op_arrivals; encode_query buf q
  | Reach q -> put_u8 buf op_reach; encode_query buf q
  | Ecc q -> put_u8 buf op_ecc; encode_query buf q);
  Buffer.contents buf

let decode_query c =
  let instance = get_str c in
  let source = get_u32 c in
  let target = get_u32 c in
  let deadline_ms = get_u32 c in
  { instance; source; target; deadline_ms }

let decode_request data =
  let c = { data; pos = 0 } in
  match
    let op = get_u8 c in
    let r =
      if op = op_ping then Some Ping
      else if op = op_health then Some Health
      else if op = op_ready then Some Ready
      else if op = op_list then Some List
      else if op = op_stats then Some Stats
      else if op = op_foremost then Some (Foremost (decode_query c))
      else if op = op_arrivals then Some (Arrivals (decode_query c))
      else if op = op_reach then Some (Reach (decode_query c))
      else if op = op_ecc then Some (Ecc (decode_query c))
      else None
    in
    match r with
    | None ->
      Stdlib.Error (Unknown_op, Printf.sprintf "unknown opcode 0x%02x" op)
    | Some r ->
      if at_end c then Stdlib.Ok r
      else Stdlib.Error (Parse_error, "trailing bytes after request")
  with
  | v -> v
  | exception Short ->
    Stdlib.Error (Parse_error, "truncated request payload")

(* Front-end support: the routing key (the instance-id operand) read
   from a query-op payload's fixed prefix, without decoding the rest.
   Control ops, unknown opcodes, and payloads too short to carry the
   id answer [None]; the front end decodes those itself, so a
   malformed frame gets the same error bytes at any shard count. *)
let peek_instance data =
  let len = String.length data in
  if len < 3 then None
  else
    let op = Char.code data.[0] in
    if op = op_foremost || op = op_arrivals || op = op_reach || op = op_ecc
    then begin
      let k = (Char.code data.[1] lsl 8) lor Char.code data.[2] in
      if len >= 3 + k then Some (String.sub data 3 k) else None
    end
    else None

(* ------------------------------------------------------------------ *)
(* Responses *)

let st_ok_empty = 0x00
and st_ok_value = 0x01
and st_ok_count = 0x02
and st_ok_vector = 0x03
and st_ok_list = 0x04
and st_ok_text = 0x05
and st_error = 0xE0

let error_code_byte = function
  | Parse_error -> 0x01
  | Unknown_op -> 0x02
  | Unknown_instance -> 0x03
  | Unavailable -> 0x04
  | Resource_exhausted -> 0x05
  | Deadline_exceeded -> 0x06
  | Shutting_down -> 0x07
  | Too_large -> 0x08
  | Bad_arg -> 0x09
  | Internal -> 0x0A

let error_code_of_byte = function
  | 0x01 -> Some Parse_error
  | 0x02 -> Some Unknown_op
  | 0x03 -> Some Unknown_instance
  | 0x04 -> Some Unavailable
  | 0x05 -> Some Resource_exhausted
  | 0x06 -> Some Deadline_exceeded
  | 0x07 -> Some Shutting_down
  | 0x08 -> Some Too_large
  | 0x09 -> Some Bad_arg
  | 0x0A -> Some Internal
  | _ -> None

let encode_response r =
  let buf = Buffer.create 64 in
  (match r with
  | Ok_empty -> put_u8 buf st_ok_empty
  | Ok_value v ->
    put_u8 buf st_ok_value;
    (match v with
    | None -> put_u32 buf none_u32
    | Some x -> put_label buf x)
  | Ok_count k ->
    put_u8 buf st_ok_count;
    put_u32 buf k
  | Ok_vector a ->
    put_u8 buf st_ok_vector;
    put_u32 buf (Array.length a);
    Array.iter (fun x -> put_label buf x) a
  | Ok_list rows ->
    put_u8 buf st_ok_list;
    put_u16 buf (List.length rows);
    List.iter
      (fun (id, status, detail) ->
        put_str buf id;
        put_str buf status;
        put_str buf detail)
      rows
  | Ok_text s ->
    put_u8 buf st_ok_text;
    put_str buf s
  | Error (code, msg) ->
    put_u8 buf st_error;
    put_u8 buf (error_code_byte code);
    put_str buf
      (if String.length msg > 0xFFFF then String.sub msg 0 0xFFFF else msg));
  Buffer.contents buf

let decode_response data =
  let c = { data; pos = 0 } in
  match
    let st = get_u8 c in
    if st = st_ok_empty then Stdlib.Ok Ok_empty
    else if st = st_ok_value then begin
      let v = get_u32 c in
      Stdlib.Ok (Ok_value (if v = none_u32 then None else Some v))
    end
    else if st = st_ok_count then Stdlib.Ok (Ok_count (get_u32 c))
    else if st = st_ok_vector then begin
      let n = get_u32 c in
      if n > max_frame / 4 then
        Stdlib.Error "vector length exceeds frame bound"
      else Stdlib.Ok (Ok_vector (Array.init n (fun _ -> get_label c)))
    end
    else if st = st_ok_list then begin
      let k = get_u16 c in
      let rows =
        List.init k (fun _ ->
            let id = get_str c in
            let status = get_str c in
            let detail = get_str c in
            (id, status, detail))
      in
      Stdlib.Ok (Ok_list rows)
    end
    else if st = st_ok_text then Stdlib.Ok (Ok_text (get_str c))
    else if st = st_error then begin
      let code = get_u8 c in
      let msg = get_str c in
      match error_code_of_byte code with
      | Some code -> Stdlib.Ok (Error (code, msg))
      | None -> Stdlib.Error (Printf.sprintf "unknown error code 0x%02x" code)
    end
    else Stdlib.Error (Printf.sprintf "unknown status byte 0x%02x" st)
  with
  | Stdlib.Ok r ->
    if at_end c then Stdlib.Ok r
    else Stdlib.Error "trailing bytes after response"
  | Stdlib.Error _ as e -> e
  | exception Short -> Stdlib.Error "truncated response payload"

(* ------------------------------------------------------------------ *)
(* Framing *)

type read_result =
  | Frame of string
  | Eof
  | Timeout
  | Oversized of int

(* A frame reader: its descriptor and a fixed buffer whose bytes
   [pos, lim) were read but not yet returned. *)
type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
}

let reader fd = { fd; buf = Bytes.create 4096; pos = 0; lim = 0 }
let reader_fd r = r.fd

(* The one read loop: fill [dst] from [off] until it holds [need]
   bytes, each step one select(2) bounded by the frame's absolute
   deadline, then one read(2) of whatever has arrived, up to [cap].  A
   peer can stall between bytes for at most the remaining window.  A
   peer that closed with our bytes unread resets the stream
   (ECONNRESET): that is its end too.  A handled signal interrupts
   either call with EINTR; both are retried, select with the time that
   remains. *)
let fill fd dst ~off ~need ~cap ~deadline =
  let rec go off =
    if off >= need then `Filled off
    else begin
      let remaining = deadline -. Obs.Clock.wall_s () in
      if remaining <= 0. then `Timeout
      else begin
        match Unix.select [ fd ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | [], _, _ -> `Timeout
        | _ -> (
          match Unix.read fd dst off (cap - off) with
          | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> `Eof
          | k -> go (off + k)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off)
      end
    end
  in
  go off

(* The header comes through the buffer: when fewer than 4 bytes are
   left, they move to its front and the fill asks for all the room
   behind them.  The payload takes what the buffer holds of it and
   reads the rest straight into itself, never past its end, so the
   buffer never grows.  With a buffer one header long ([read_frame])
   both fills are exact: a select and a read for the header, then for
   the payload. *)
let next_frame ?(deadline_s = 30.) r =
  let deadline = Obs.Clock.wall_s () +. deadline_s in
  let held = r.lim - r.pos in
  if held < 4 then begin
    Bytes.blit r.buf r.pos r.buf 0 held;
    r.pos <- 0;
    r.lim <- held
  end;
  match
    fill r.fd r.buf ~off:r.lim ~need:(r.pos + 4) ~cap:(Bytes.length r.buf)
      ~deadline
  with
  | `Eof -> Eof
  | `Timeout -> Timeout
  | `Filled lim ->
    r.lim <- lim;
    let len =
      (Bytes.get_uint16_be r.buf r.pos lsl 16)
      lor Bytes.get_uint16_be r.buf (r.pos + 2)
    in
    r.pos <- r.pos + 4;
    if len > max_frame then Oversized len
    else begin
      let payload = Bytes.create len in
      let have = min len (r.lim - r.pos) in
      Bytes.blit r.buf r.pos payload 0 have;
      r.pos <- r.pos + have;
      match fill r.fd payload ~off:have ~need:len ~cap:len ~deadline with
      | `Eof -> Eof
      | `Timeout -> Timeout
      | `Filled _ -> Frame (Bytes.unsafe_to_string payload)
    end

let read_frame ?deadline_s fd =
  next_frame ?deadline_s { fd; buf = Bytes.create 4; pos = 0; lim = 0 }

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then invalid_arg "Proto.write_frame: payload too large";
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 b 4 len;
  let rec go off len =
    if len > 0 then begin
      let k = Unix.write fd b off len in
      go (off + k) (len - k)
    end
  in
  go 0 (4 + len)

(* ------------------------------------------------------------------ *)
(* Deterministic text rendering, for scripted sessions and the soak. *)

let render_response = function
  | Ok_empty -> "ok"
  | Ok_value None -> "-"
  | Ok_value (Some v) -> string_of_int v
  | Ok_count k -> string_of_int k
  | Ok_vector a ->
    String.concat " "
      (Array.to_list
         (Array.map (fun x -> if x = max_int then "-" else string_of_int x) a))
  | Ok_list rows ->
    String.concat "; "
      (List.map
         (fun (id, status, detail) ->
           if detail = "" then Printf.sprintf "%s %s" id status
           else Printf.sprintf "%s %s (%s)" id status detail)
         rows)
  | Ok_text s -> s
  | Error (code, msg) ->
    if msg = "" then Printf.sprintf "error %s" (error_code_to_string code)
    else Printf.sprintf "error %s: %s" (error_code_to_string code) msg
