(* Rate-limited operator warnings.  Degradation paths (store falling
   back to cache-off, a malformed EPHEMERAL_JOBS, a poisoned worker)
   must tell the operator once — not once per trial, which under a
   fault plan could mean thousands of identical lines drowning the
   tables. *)

let m = Mutex.create ()
let seen : (string, unit) Hashtbl.t = Hashtbl.create 8

let warn_once key fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.lock m;
      let fresh = not (Hashtbl.mem seen key) in
      if fresh then Hashtbl.add seen key ();
      Mutex.unlock m;
      if fresh then Printf.eprintf "warning: %s\n%!" msg)
    fmt
