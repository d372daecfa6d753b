(* Supervised trial execution: bounded retries, deadlines, and the
   --keep-going degradation contract, layered under Runner.

   The determinism keystone: every attempt of trial i runs against
   [Rng.copy] of the trial's pristine pre-split stream, so a trial
   that succeeds on attempt 3 computes bit-identically to one that
   succeeds on attempt 0 — which is why a faulted run with retries
   renders byte-identically to the fault-free run at any --jobs.

   Deadlines are cooperative: OCaml code cannot be preempted, so the
   per-trial timeout is checked after the attempt (a too-slow attempt
   is discarded and retried — under an armed delay plan a retry can
   genuinely clear it) and the per-run deadline before each attempt
   (once it passes, remaining trials fail fast without running). *)

type failure = { trial : int; attempts : int; message : string }

type config = {
  max_retries : int;
  trial_timeout : float option;  (* seconds per attempt *)
  run_deadline : float option;  (* seconds from [configure] *)
  keep_going : bool;
}

let default =
  { max_retries = 0; trial_timeout = None; run_deadline = None; keep_going = false }

exception Trial_failed of failure

exception Trial_timeout of { trial : int; seconds : float }
exception Run_deadline_exceeded

let () =
  Printexc.register_printer (function
    | Trial_failed f ->
      Some
        (Printf.sprintf "Sim.Supervise.Trial_failed(trial %d, %d attempt%s: %s)"
           f.trial f.attempts
           (if f.attempts = 1 then "" else "s")
           f.message)
    | Trial_timeout { trial; seconds } ->
      Some (Printf.sprintf "Sim.Supervise.Trial_timeout(trial %d, %.3fs)" trial seconds)
    | Run_deadline_exceeded -> Some "Sim.Supervise.Run_deadline_exceeded"
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Process-wide configuration and per-run degradation record. *)

let cfg = Atomic.make default
let deadline_ns : int64 option Atomic.t = Atomic.make None

let m = Mutex.create ()
let run_failures : failure list ref = ref []
let run_planned = ref 0
let run_failed = ref 0

let reset_run () =
  Mutex.lock m;
  run_failures := [];
  run_planned := 0;
  run_failed := 0;
  Mutex.unlock m

let configure c =
  Atomic.set cfg c;
  Atomic.set deadline_ns
    (Option.map
       (fun s -> Int64.add (Obs.Clock.now ()) (Int64.of_float (s *. 1e9)))
       c.run_deadline);
  reset_run ()

let current () = Atomic.get cfg
let active () = Atomic.get cfg <> default || Fault.Inject.armed ()

let note_planned n =
  Mutex.lock m;
  run_planned := !run_planned + n;
  Mutex.unlock m

let note_failures fs =
  Mutex.lock m;
  run_failures := !run_failures @ fs;
  run_failed := !run_failed + List.length fs;
  Mutex.unlock m

let failures () =
  Mutex.lock m;
  let fs = !run_failures in
  Mutex.unlock m;
  fs

let degraded () = failures () <> []

(* sqrt(planned / completed): the CI half-width of a mean shrinks like
   1/sqrt(n), so this is the factor by which losing trials loosened
   it.  1.0 on a clean run, so clean output is untouched. *)
let ci_widen () =
  Mutex.lock m;
  let planned = !run_planned and failed = !run_failed in
  Mutex.unlock m;
  if failed = 0 || planned <= failed then 1.0
  else sqrt (float_of_int planned /. float_of_int (planned - failed))

(* ------------------------------------------------------------------ *)

let retryable_exn = function
  | Fault.Inject.Injected { retryable; _ } -> retryable
  | Run_deadline_exceeded -> false
  | Trial_timeout _ -> true
  | Out_of_memory | Stack_overflow -> false
  | _ -> true (* a real trial exception may be environmental; retry it *)

let check_run_deadline () =
  match Atomic.get deadline_ns with
  | Some limit when Obs.Clock.now () > limit -> raise Run_deadline_exceeded
  | _ -> ()

let run_trial ~trial rng0 f =
  let c = Atomic.get cfg in
  let attempt_once k =
    check_run_deadline ();
    Fault.Inject.before_trial ~trial ~attempt:k;
    (* The copy replays the pristine stream, so every attempt computes
       the same value — the retried run stays byte-identical. *)
    let rng = Prng.Rng.copy rng0 in
    match c.trial_timeout with
    | None -> f rng
    | Some limit ->
      let t0 = Obs.Clock.now () in
      let v = f rng in
      let elapsed = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns ~since:t0) in
      if elapsed > limit then raise (Trial_timeout { trial; seconds = elapsed });
      v
  in
  let rec go k =
    let timed = k > 0 && Obs.Control.enabled () in
    let t0 = if timed then Obs.Clock.now () else 0L in
    (* Wall milliseconds of retry attempts (attempt >= 1) — with Obs
       on, what rerunning trials actually cost a faulted run.  This
       handle and the two counters below resolve on the retry path
       itself, so a clean run registers none of them. *)
    let observe_retry () =
      if timed then
        Obs.Metrics.observe
          (Obs.Metrics.histogram "supervise.retry_ms")
          (Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns ~since:t0))
    in
    match attempt_once k with
    | v ->
      observe_retry ();
      Ok v
    | exception e ->
      observe_retry ();
      if k < c.max_retries && retryable_exn e then begin
        Obs.Metrics.incr (Obs.Metrics.counter "trials.retried");
        go (k + 1)
      end
      else begin
        Obs.Metrics.incr (Obs.Metrics.counter "trials.failed");
        Error { trial; attempts = k + 1; message = Printexc.to_string e }
      end
  in
  go 0
