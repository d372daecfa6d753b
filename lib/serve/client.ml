(* Minimal blocking client: one socket, one request in flight.  Used
   by `ephemeral query`, the chaos soak, and the tests — all of which
   want errors as values, never exceptions (the soak counts protocol
   violations; a raise would abort the count). *)

type t = { fd : Unix.file_descr; mutable closed : bool }

let connect ?(timeout_s = 10.) address =
  let domain, addr =
    match (address : Server.address) with
    | Server.Unix_path p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
    | Server.Tcp (host, port) ->
      let a =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      (Unix.PF_INET, Unix.ADDR_INET (a, port))
  in
  let deadline = Obs.Clock.wall_s () +. timeout_s in
  let rec attempt () =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok { fd; closed = false }
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with _ -> ());
      if Obs.Clock.wall_s () < deadline then begin
        (* The server may still be binding (startup race in the soak
           and CI): retry inside the window. *)
        Unix.sleepf 0.02;
        attempt ()
      end
      else Error (Printf.sprintf "connect: %s" (Unix.error_message e))
  in
  attempt ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with _ -> ()
  end

let fd t = t.fd

(* A server that closed the connection shows on the write as EPIPE or
   ECONNRESET, and on the read as EOF: one error either way. *)
let closed = "connection closed by server"

let call ?(timeout_s = 30.) t request =
  match Proto.write_frame t.fd (Proto.encode_request request) with
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    Error closed
  | exception e -> Error (Printf.sprintf "write: %s" (Printexc.to_string e))
  | () -> (
    match Proto.read_frame ~deadline_s:timeout_s t.fd with
    | Proto.Frame payload -> (
      match Proto.decode_response payload with
      | Ok r -> Ok r
      | Error m -> Error (Printf.sprintf "protocol violation: %s" m))
    | Proto.Eof -> Error closed
    | Proto.Timeout -> Error "timed out waiting for reply"
    | Proto.Oversized k ->
      Error (Printf.sprintf "protocol violation: %d-byte reply frame" k))
