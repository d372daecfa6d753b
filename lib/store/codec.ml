(* Versioned, dependency-free binary serialization for the result
   store.

   Every encoded object is one self-describing record:

     offset 0   magic "EPHS"            (4 bytes)
     offset 4   format version          (u8)
     offset 5   kind                    (u8: 3, an outcome)
     offset 6   payload length          (u32 LE)
     offset 10  payload                 (length bytes)
     end        CRC-32 of bytes [0, 10+length)   (u32 LE)

   Floats are stored as their IEEE-754 bit patterns, so NaN payloads,
   infinities and signed zeros round-trip exactly — decoded tables
   render byte-identically to the originals.  A version bump changes
   the header, so stale objects are *rejected* (a cache miss), never
   misparsed. *)

let magic = "EPHS"
let format_version = 1

let kind_outcome = 3

type outcome = {
  tables : Stats.Table.t list;
  notes : string list;
  plots : string list;
}

(* ------------------------------------------------------------------ *)
(* Writers *)

let w_u8 buf v = Buffer.add_uint8 buf (v land 0xFF)
let w_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let w_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let w_f64 buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let w_str buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_list buf w items =
  w_u32 buf (List.length items);
  List.iter (w buf) items

let w_cell buf = function
  | Stats.Table.Int i ->
    w_u8 buf 0;
    w_i64 buf i
  | Stats.Table.Float (x, decimals) ->
    w_u8 buf 1;
    w_f64 buf x;
    w_u32 buf decimals
  | Stats.Table.Str s ->
    w_u8 buf 2;
    w_str buf s
  | Stats.Table.Pct x ->
    w_u8 buf 3;
    w_f64 buf x

let w_table buf t =
  w_str buf (Stats.Table.title t);
  w_list buf w_str (Stats.Table.columns t);
  w_list buf (fun buf row -> w_list buf w_cell row) (Stats.Table.rows t)

let w_outcome buf (o : outcome) =
  w_list buf w_table o.tables;
  w_list buf w_str o.notes;
  w_list buf w_str o.plots

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame payload =
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  w_u8 buf format_version;
  w_u8 buf kind_outcome;
  w_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  let crc = Crc32.digest (Buffer.contents buf) in
  Buffer.add_int32_le buf crc;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Readers *)

exception Bad of string

type reader = { s : string; mutable pos : int }

let need r n =
  if n < 0 || r.pos + n > String.length r.s then raise (Bad "truncated payload")

let r_u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.s r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let r_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let r_str r =
  let len = r_u32 r in
  need r len;
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

let r_list r read =
  let count = r_u32 r in
  if count > String.length r.s then raise (Bad "implausible list length");
  List.init count (fun _ -> read r)

let r_cell r =
  match r_u8 r with
  | 0 -> Stats.Table.Int (r_i64 r)
  | 1 ->
    let x = r_f64 r in
    let decimals = r_u32 r in
    Stats.Table.Float (x, decimals)
  | 2 -> Stats.Table.Str (r_str r)
  | 3 -> Stats.Table.Pct (r_f64 r)
  | tag -> raise (Bad (Printf.sprintf "unknown cell tag %d" tag))

let r_table r =
  let title = r_str r in
  let columns = r_list r r_str in
  let table = Stats.Table.create ~title ~columns in
  let rows = r_list r (fun r -> r_list r r_cell) in
  (try List.iter (Stats.Table.add_row table) rows with
  | Invalid_argument msg -> raise (Bad msg));
  table

let r_outcome r =
  let tables = r_list r r_table in
  let notes = r_list r r_str in
  let plots = r_list r r_str in
  { tables; notes; plots }

let header_len = 10 (* magic + version + kind + payload length *)

let unframe s =
  let total = String.length s in
  if total < header_len + 4 then raise (Bad "object shorter than header");
  if String.sub s 0 4 <> magic then raise (Bad "bad magic");
  let r = { s; pos = 4 } in
  let version = r_u8 r in
  if version <> format_version then
    raise (Bad (Printf.sprintf "stale format version %d (want %d)" version format_version));
  let k = r_u8 r in
  if k <> kind_outcome then
    raise (Bad (Printf.sprintf "kind %d where %d expected" k kind_outcome));
  let len = r_u32 r in
  if len <> total - header_len - 4 then raise (Bad "length mismatch");
  let stored =
    Int32.to_int (String.get_int32_le s (total - 4)) land 0xFFFFFFFF
  in
  let actual =
    Int32.to_int (Crc32.digest_sub s ~pos:0 ~len:(total - 4)) land 0xFFFFFFFF
  in
  if stored <> actual then raise (Bad "CRC mismatch");
  { s = String.sub s header_len len; pos = 0 }

(* ------------------------------------------------------------------ *)
(* Public API *)

let encode_outcome o =
  let payload = Buffer.create 1024 in
  w_outcome payload o;
  frame (Buffer.contents payload)

let decode_outcome s =
  match
    let r = unframe s in
    let v = r_outcome r in
    if r.pos <> String.length r.s then raise (Bad "trailing payload bytes");
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
