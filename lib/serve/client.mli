(** Minimal blocking client: one socket, one request in flight.
    Errors come back as values — the soak counts protocol violations
    and must never abort on one. *)

type t

val connect :
  ?timeout_s:float -> Server.address -> (t, string) result
(** Retries inside the window (default 10 s) while the server is still
    binding. *)

val close : t -> unit
val fd : t -> Unix.file_descr
(** The raw socket, for fault injection (abrupt close, trickled
    writes) in the soak. *)

val call :
  ?timeout_s:float -> t -> Proto.request -> (Proto.response, string) result
(** One round trip.  [Error] covers transport failures and protocol
    violations (undecodable reply, oversized frame).  A connection the
    server closed is ["connection closed by server"], whether the
    write or the read saw it.  The write to a closed peer raises
    SIGPIPE first: a caller must ignore that signal
    ([Sys.set_signal Sys.sigpipe Sys.Signal_ignore]), or the process
    dies before the error comes back. *)
