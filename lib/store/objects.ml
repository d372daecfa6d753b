(* Content-addressed on-disk object store.

   Layout under the store directory:

     objects/<aa>/<digest>   object bytes, named by their MD5 digest
                             (first two hex chars shard the directory)
     manifest.jsonl          one JSON object per publish: key ->
                             content digest, size, time, and the
                             human-readable key components
     quarantine/<digest>     objects that failed verification on read
     checkpoints/<run key>/  trial-chunk checkpoints (see Checkpoint)

   Publishes are atomic (tmp file + rename for the object, a single
   fsynced O_APPEND line for the manifest), so a crash leaves either
   the previous state or the new one.  Reads re-digest the bytes and
   compare against the content address: a truncated or bit-flipped
   object is detected, moved to quarantine/ and reported as a miss, so
   the next run transparently repopulates it.  The manifest is loaded
   leniently — a malformed (crash-truncated) final line is skipped. *)

type entry = {
  key : string;
  digest : string;
  size : int;
  time : float;
  meta : (string * string) list;
}

type t = {
  dir : string;
  mutable entries : entry list; (* chronological: oldest first *)
  tbl : (string, entry) Hashtbl.t; (* key -> latest entry *)
}

let default_dir = ".ephemeral-store"

let objects_dir t = Filename.concat t.dir "objects"
let quarantine_dir t = Filename.concat t.dir "quarantine"
let manifest_path t = Filename.concat t.dir "manifest.jsonl"

let object_path t ~digest =
  let shard = if String.length digest >= 2 then String.sub digest 0 2 else "xx" in
  Filename.concat (Filename.concat (objects_dir t) shard) digest

(* ------------------------------------------------------------------ *)
(* Manifest lines: a hand-rolled writer/parser for the tiny JSON
   subset we emit (flat object of strings and numbers, plus one nested
   string-to-string "meta" object).  Dependency-free by design. *)

type json =
  | J_str of string
  | J_num of float
  | J_bool of bool
  | J_obj of (string * json) list

let entry_to_json e =
  let quote s = "\"" ^ Obs.Sink.json_escape s ^ "\"" in
  let meta =
    String.concat ","
      (List.map (fun (k, v) -> quote k ^ ":" ^ quote v) e.meta)
  in
  Printf.sprintf {|{"key":%s,"object":%s,"size":%d,"time":%.6f,"meta":{%s}}|}
    (quote e.key) (quote e.digest) e.size e.time meta

exception Bad_json

let parse_json line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then raise Bad_json else line.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then raise Bad_json;
    advance ()
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Bad_json
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char buf '"'; advance ()
        | '\\' -> Buffer.add_char buf '\\'; advance ()
        | '/' -> Buffer.add_char buf '/'; advance ()
        | 'n' -> Buffer.add_char buf '\n'; advance ()
        | 'r' -> Buffer.add_char buf '\r'; advance ()
        | 't' -> Buffer.add_char buf '\t'; advance ()
        | 'b' -> Buffer.add_char buf '\b'; advance ()
        | 'f' -> Buffer.add_char buf '\012'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then raise Bad_json;
          let code =
            (hex line.[!pos] lsl 12) lor (hex line.[!pos + 1] lsl 8)
            lor (hex line.[!pos + 2] lsl 4) lor hex line.[!pos + 3]
          in
          pos := !pos + 4;
          if code > 0xFF then raise Bad_json (* we only ever emit ASCII escapes *)
          else Buffer.add_char buf (Char.chr code)
        | _ -> raise Bad_json);
        go ()
      | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match line.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some x -> x
    | None -> raise Bad_json
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> J_str (parse_string ())
    | '{' -> parse_object ()
    | 't' ->
      if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
        pos := !pos + 4;
        J_bool true
      end
      else raise Bad_json
    | 'f' ->
      if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
        pos := !pos + 5;
        J_bool false
      end
      else raise Bad_json
    | _ -> J_num (parse_number ())
  and parse_object () =
    expect '{';
    skip_ws ();
    if peek () = '}' then begin
      advance ();
      J_obj []
    end
    else begin
      let rec fields acc =
        let k = (skip_ws (); parse_string ()) in
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | ',' -> advance (); fields ((k, v) :: acc)
        | '}' -> advance (); List.rev ((k, v) :: acc)
        | _ -> raise Bad_json
      in
      J_obj (fields [])
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise Bad_json;
  v

let entry_of_line line =
  match parse_json line with
  | exception Bad_json -> None
  | J_obj fields ->
    let str k = match List.assoc_opt k fields with Some (J_str s) -> Some s | _ -> None in
    let num k = match List.assoc_opt k fields with Some (J_num x) -> Some x | _ -> None in
    let meta =
      match List.assoc_opt "meta" fields with
      | Some (J_obj kvs) ->
        List.filter_map
          (fun (k, v) -> match v with J_str s -> Some (k, s) | _ -> None)
          kvs
      | _ -> []
    in
    (match (str "key", str "object", num "size", num "time") with
    | Some key, Some digest, Some size, Some time ->
      Some { key; digest; size = int_of_float size; time; meta }
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)

let load_manifest t =
  match Fsio.read_file (manifest_path t) with
  | None -> ()
  | Some data ->
    String.split_on_char '\n' data
    |> List.iter (fun line ->
           if line <> "" then
             match entry_of_line line with
             | None ->
               (* Malformed (e.g. crash-truncated) line: skip it, but
                  leave an audit trail — a torn line is expected after
                  a crash or an injected torn write, never in bulk. *)
               Obs.Metrics.incr (Obs.Metrics.counter "store.manifest_torn")
             | Some e ->
               t.entries <- e :: t.entries;
               Hashtbl.replace t.tbl e.key e);
    t.entries <- List.rev t.entries

let open_ ~dir =
  Fsio.ensure_dir dir;
  Fsio.ensure_dir (Filename.concat dir "objects");
  let t = { dir; entries = []; tbl = Hashtbl.create 64 } in
  load_manifest t;
  t

let entries t = t.entries
let find t ~key = Hashtbl.find_opt t.tbl key

let quarantine_object t ~digest =
  let path = object_path t ~digest in
  if Sys.file_exists path then begin
    Fsio.ensure_dir (quarantine_dir t);
    try Sys.rename path (Filename.concat (quarantine_dir t) digest) with
    | Sys_error _ -> Fsio.remove_if_exists path
  end

let quarantine t entry = quarantine_object t ~digest:entry.digest

let get t ~key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some entry ->
    (match Fsio.read_file (object_path t ~digest:entry.digest) with
    | None -> None
    | Some data ->
      if Digest.to_hex (Digest.string data) = entry.digest then Some (data, entry)
      else begin
        (* Truncated or bit-flipped on disk: never hand it out.  Move
           it aside so the next publish repopulates the address. *)
        quarantine t entry;
        None
      end)

let put t ~key ~meta data =
  let digest = Digest.to_hex (Digest.string data) in
  (match Hashtbl.find_opt t.tbl key with
  | Some e when e.digest = digest && Sys.file_exists (object_path t ~digest) ->
    (* Idempotent republish: same key, same content, object intact. *)
    Some e
  | _ -> None)
  |> function
  | Some e -> e
  | None ->
    let path = object_path t ~digest in
    if not (Sys.file_exists path) then begin
      Fsio.write_atomic path data;
      if Obs.Control.enabled () then
        Obs.Metrics.add
          (Obs.Metrics.counter "store.bytes_written")
          (String.length data)
    end;
    let entry =
      { key; digest; size = String.length data; time = Unix.gettimeofday (); meta }
    in
    Fsio.append_line (manifest_path t) (entry_to_json entry);
    t.entries <- t.entries @ [ entry ];
    Hashtbl.replace t.tbl key entry;
    entry

let rewrite_manifest t kept =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_to_json e);
      Buffer.add_char buf '\n')
    kept;
  Fsio.write_atomic (manifest_path t) (Buffer.contents buf);
  t.entries <- kept;
  Hashtbl.reset t.tbl;
  List.iter (fun e -> Hashtbl.replace t.tbl e.key e) kept

let delete_object t ~digest = Fsio.remove_if_exists (object_path t ~digest)

let object_digests_on_disk t =
  let root = objects_dir t in
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | shards ->
    Array.to_list shards
    |> List.concat_map (fun shard ->
           let sdir = Filename.concat root shard in
           if Sys.is_directory sdir then
             Array.to_list (Sys.readdir sdir)
           else [])
