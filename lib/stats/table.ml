type cell = Int of int | Float of float * int | Str of string | Pct of float

type t = {
  title : string;
  columns : string list;
  width : int;
  mutable rev_rows : cell list list;
  mutable degraded : bool;
}

let create ~title ~columns =
  { title; columns; width = List.length columns; rev_rows = []; degraded = false }

let title t = t.title
let columns t = t.columns
let set_degraded t = t.degraded <- true

(* The marker every renderer appends: partial results must be visible
   in the terminal, the CSV and the Markdown alike, not only in the
   run's notes. *)
let degraded_marker = "degraded: partial results (failed trials excluded)"

let add_row t row =
  if List.length row <> t.width then
    invalid_arg
      (Printf.sprintf "Table.add_row: row has %d cells, table has %d columns"
         (List.length row) t.width);
  t.rev_rows <- row :: t.rev_rows

let rows t = List.rev t.rev_rows

let cell_to_string = function
  | Int i -> string_of_int i
  | Float (x, decimals) -> Printf.sprintf "%.*f" decimals x
  | Str s -> s
  | Pct p -> Printf.sprintf "%.1f%%" (100. *. p)

let column_floats t name =
  let rec index i = function
    | [] -> raise Not_found
    | c :: _ when c = name -> i
    | _ :: rest -> index (i + 1) rest
  in
  let idx = index 0 t.columns in
  List.filter_map
    (fun row ->
      match List.nth row idx with
      | Int i -> Some (float_of_int i)
      | Float (x, _) -> Some x
      | Pct p -> Some p
      | Str _ -> None)
    (rows t)

let render_grid t =
  let header = t.columns in
  let body = List.map (List.map cell_to_string) (rows t) in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) body)
      header
  in
  (header, body, widths)

let pad_left s w = String.make (w - String.length s) ' ' ^ s

let to_ascii t =
  let header, body, widths = render_grid t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length t.title) '=');
  Buffer.add_char buf '\n';
  let emit_row cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad_left cell (List.nth widths i)))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  emit_row (List.map (fun w -> String.make w '-') widths);
  List.iter emit_row body;
  if t.degraded then Buffer.add_string buf ("[" ^ degraded_marker ^ "]\n");
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 1024 in
  let emit_row cells =
    Buffer.add_string buf (String.concat "," (List.map csv_escape cells));
    Buffer.add_char buf '\n'
  in
  emit_row t.columns;
  List.iter (fun row -> emit_row (List.map cell_to_string row)) (rows t);
  if t.degraded then Buffer.add_string buf ("# " ^ degraded_marker ^ "\n");
  Buffer.contents buf

let to_markdown t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "**%s**\n\n" t.title);
  let emit_row cells =
    Buffer.add_string buf ("| " ^ String.concat " | " cells ^ " |\n")
  in
  emit_row t.columns;
  emit_row (List.map (fun _ -> "---") t.columns);
  List.iter (fun row -> emit_row (List.map cell_to_string row)) (rows t);
  if t.degraded then Buffer.add_string buf ("\n*" ^ degraded_marker ^ "*\n");
  Buffer.contents buf
