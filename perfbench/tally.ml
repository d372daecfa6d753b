(* Outcome of one served query, and the attempted/failed count.  A
   failure is anything but the oracle's answer: an error reply (a shed
   request is RESOURCE_EXHAUSTED), a transport failure or timeout, or a
   wrong value. *)

type outcome =
  | Correct
  | Wrong of { expected : int option; got : int option }
  | Shed
  | Error_reply of string
  | Transport of string  (** includes timeouts *)
  | Unexpected of string  (** a well-formed reply of the wrong kind *)

let classify ~expected (reply : (Serve.Proto.response, string) result) =
  match reply with
  | Ok (Serve.Proto.Ok_value got) ->
    if got = expected then Correct else Wrong { expected; got }
  | Ok (Serve.Proto.Error (Serve.Proto.Resource_exhausted, _)) -> Shed
  | Ok (Serve.Proto.Error (code, msg)) ->
    Error_reply (Serve.Proto.error_code_to_string code ^ ": " ^ msg)
  | Ok r -> Unexpected (Serve.Proto.render_response r)
  | Error m -> Transport m

let is_failure = function Correct -> false | _ -> true

let describe = function
  | Correct -> "correct"
  | Wrong { expected; got } ->
    let s = function None -> "unreachable" | Some v -> string_of_int v in
    Printf.sprintf "wrong value: expected %s, got %s" (s expected) (s got)
  | Shed -> "shed (RESOURCE_EXHAUSTED)"
  | Error_reply m -> "error reply: " ^ m
  | Transport m -> "transport: " ^ m
  | Unexpected m -> "unexpected reply: " ^ m

type t = { mutable attempted : int; mutable failed : int; mutable first_failure : string option }

let create () = { attempted = 0; failed = 0; first_failure = None }

let add t outcome =
  t.attempted <- t.attempted + 1;
  if is_failure outcome then begin
    t.failed <- t.failed + 1;
    if t.first_failure = None then t.first_failure <- Some (describe outcome)
  end
