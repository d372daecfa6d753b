(* The little JSON the benchmark needs: its own result documents, the
   serve [--report] ledger, and BENCHMARK.json in the tests. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < len then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < len && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false)
    then (incr pos; skip_ws ())
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= len then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > len then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < len
      && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
      end
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  match value () with
  | v ->
    skip_ws ();
    if !pos <> len then Error (Printf.sprintf "trailing bytes at %d" !pos) else Ok v
  | exception Bad m -> Error m

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every digit the float has ("%.17g" round-trips), never nan/inf. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f ->
    if Float.is_finite f then num_to_string f
    else invalid_arg "Json.to_string: non-finite number"
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
    ^ "}"
