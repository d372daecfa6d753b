(* Shard-worker process management for the sharded router.

   A shard is an ordinary `ephemeral serve` process re-exec'd from the
   running binary with the router's own argv plus a hidden
   [--shard-index K] flag: it loads only its consistent-hash partition
   of the manifest and listens on a private socket derived from the
   public one.  Re-exec (not fork) is deliberate: the router runs
   systhreads and an accept loop, and a forked child would inherit
   that mid-flight state; a fresh exec also makes crash-respawn
   identical to first spawn.

   Readiness is probed by PING over the shard's socket, not by parsing
   child stdout — shards announce nothing, so the router's own READY
   line is the only one the parent's supervisor (soak, CI scripts)
   ever sees. *)

let path base k = Printf.sprintf "%s.shard-%d" base k

let spawn argv =
  Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr

(* Poll PING until the shard answers.  Connect failures (socket not
   bound yet, stale socket from a crashed predecessor) and non-PONG
   replies both just retry inside the window. *)
let wait_ready ?(timeout_s = 10.) socket =
  let deadline = Obs.Clock.wall_s () +. timeout_s in
  let rec loop () =
    if Obs.Clock.wall_s () >= deadline then
      Error (Printf.sprintf "shard on %s not ready after %.1fs" socket timeout_s)
    else
      match Client.connect ~timeout_s:0.2 (Server.Unix_path socket) with
      | Error _ ->
        Thread.delay 0.02;
        loop ()
      | Ok c ->
        let r = Client.call ~timeout_s:1.0 c Proto.Ping in
        Client.close c;
        (match r with
        | Ok Proto.Ok_empty -> Ok ()
        | _ ->
          Thread.delay 0.02;
          loop ())
  in
  loop ()

(* Reap one pid without blocking.  [None] = still running. *)
let poll_exit pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    (* Already reaped (or never ours): treat as exited. *)
    Some (Unix.WEXITED 0)

(* SIGTERM, bounded wait for the graceful drain, SIGKILL escalation.
   Must only run once no other thread is reaping this pid. *)
let terminate ?(timeout_s = 10.) pid =
  (try Unix.kill pid Sys.sigterm with _ -> ());
  let deadline = Obs.Clock.wall_s () +. timeout_s in
  let rec wait () =
    match poll_exit pid with
    | Some status -> status
    | None ->
      if Obs.Clock.wall_s () >= deadline then begin
        (try Unix.kill pid Sys.sigkill with _ -> ());
        match Unix.waitpid [] pid with
        | _, status -> status
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
      end
      else begin
        Thread.delay 0.02;
        wait ()
      end
  in
  wait ()
