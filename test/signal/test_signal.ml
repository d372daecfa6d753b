(* A handled signal that lands on a thread blocked reading a frame
   must not break the read: the select(2) that enforces the frame
   deadline returns EINTR, and the reader has to go on waiting for the
   rest of the window.  Both the one-shot [Proto.read_frame] and a
   connection's buffered [Proto.reader] take that path.

   The main thread blocks SIGUSR1 while a reader waits, and OCaml's
   tick thread blocks every signal, so the kernel can deliver it only
   to the reader. *)

open Serve

let handled_signal_keeps_reading read () =
  let caught = Atomic.make 0 in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> Atomic.incr caught));
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let got = ref None in
  let reader =
    Thread.create
      (fun () ->
        got := Some (match read a with r -> Ok r | exception e -> Error e))
      ()
  in
  (* Block after the reader exists: a new thread inherits the mask.
     Unblock at the end, so the next case's reader can take it. *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigusr1 ]);
  Fun.protect
    ~finally:(fun () -> ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigusr1 ]))
    (fun () ->
      (* Let the reader reach its select before the signal lands. *)
      Thread.delay 0.2;
      Unix.kill (Unix.getpid ()) Sys.sigusr1;
      Thread.delay 0.1;
      Proto.write_frame b "payload";
      Thread.join reader);
  Unix.close a;
  Unix.close b;
  Alcotest.(check int) "signal handled" 1 (Atomic.get caught);
  match !got with
  | Some (Ok (Proto.Frame p)) -> Alcotest.(check string) "frame read" "payload" p
  | Some (Ok _) -> Alcotest.fail "the read returned no frame"
  | Some (Error e) -> Alcotest.failf "the read raised %s" (Printexc.to_string e)
  | None -> Alcotest.fail "reader did not finish"

let () =
  Alcotest.run "signal"
    [
      ( "proto.signal",
        [
          Alcotest.test_case "handled signal keeps a frame read" `Quick
            (handled_signal_keeps_reading (Proto.read_frame ~deadline_s:10.));
          Alcotest.test_case "handled signal keeps a buffered frame read"
            `Quick
            (handled_signal_keeps_reading (fun fd ->
                 Proto.next_frame ~deadline_s:10. (Proto.reader fd)));
        ] );
    ]
