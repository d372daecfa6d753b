(* Print a run ledger's deterministic counters, one "name value" per
   line:

     counters.exe LEDGER.json

   The ledger is one line of JSON whose "deterministic" object holds a
   flat "counters" object of integer values, so a substring scan is
   enough; no JSON library is needed.  Exits 2 when the object is
   missing. *)

let find_from s ~from sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = sub then Some (i + k)
    else go (i + 1)
  in
  go from

let () =
  let path = Sys.argv.(1) in
  let doc = In_channel.with_open_bin path In_channel.input_all in
  let body =
    Option.bind (find_from doc ~from:0 {|"deterministic":{|}) (fun from ->
        Option.bind (find_from doc ~from {|"counters":{|}) (fun start ->
            Option.map
              (fun stop -> String.sub doc start (stop - start))
              (String.index_from_opt doc start '}')))
  in
  match body with
  | None ->
    prerr_endline (path ^ ": no deterministic counters object");
    exit 2
  | Some "" -> ()
  | Some body ->
    List.iter
      (fun field ->
        match String.rindex_opt field ':' with
        | Some c ->
          let name = String.sub field 0 c in
          let value = String.sub field (c + 1) (String.length field - c - 1) in
          let unquote s = String.sub s 1 (String.length s - 2) in
          Printf.printf "%s %s\n" (unquote name) value
        | None ->
          prerr_endline (path ^ ": malformed counter " ^ field);
          exit 2)
      (String.split_on_char ',' body)
