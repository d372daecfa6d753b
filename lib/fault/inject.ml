(* The armed plan and the injection sites.

   Sites are called unconditionally from production code (Sim.Runner
   trials, Store.Fsio writes, Exec.Pool workers); with no plan armed
   each reduces to one atomic load and a branch, so the fault plane
   costs nothing when idle.  With a plan armed, each site rolls
   deterministically (Plan.roll) on coordinates that identify the
   operation — (trial, attempt) for trials, (path hash, attempt) for
   writes — so the same plan injects the same faults at any job count
   and in any execution order. *)

exception Injected of { site : string; retryable : bool }

let () =
  Printexc.register_printer (function
    | Injected { site; retryable } ->
      Some
        (Printf.sprintf "Fault.Inject.Injected(site=%s, %s)" site
           (if retryable then "retryable" else "unretryable"))
    | _ -> None)

let armed_plan : Plan.t option Atomic.t = Atomic.make None

let arm plan = Atomic.set armed_plan (if Plan.active plan then Some plan else None)
let disarm () = Atomic.set armed_plan None
let armed () = Atomic.get armed_plan <> None

(* Counters are always live (never gated on Obs.Control): injections
   are rare, and the chaos command reports them even without
   --metrics. *)
let injected () = Obs.Metrics.incr (Obs.Metrics.counter "faults.injected")

let count site =
  injected ();
  Obs.Metrics.incr (Obs.Metrics.counter ("faults." ^ site))

let before_trial ~trial ~attempt =
  match Atomic.get armed_plan with
  | None -> ()
  | Some p ->
    if p.delay > 0. && Plan.roll p ~site:"trial.delay" ~a:trial ~b:attempt < p.delay
    then begin
      count "delay";
      Unix.sleepf (p.delay_ms /. 1000.)
    end;
    if p.trial > 0. && Plan.roll p ~site:"trial.exn" ~a:trial ~b:attempt < p.trial
    then begin
      count "trial";
      let retryable =
        not (Plan.roll p ~site:"trial.fatal" ~a:trial ~b:attempt < p.fatal)
      in
      raise (Injected { site = "trial"; retryable })
    end

type io_decision =
  | Io_ok
  | Io_error of { message : string; torn : bool }

let io_write ~path ~attempt =
  match Atomic.get armed_plan with
  | None -> Io_ok
  | Some p ->
    let a = Hashtbl.hash path in
    if p.io > 0. && Plan.roll p ~site:"io.write" ~a ~b:attempt < p.io then begin
      count "io";
      let torn = Plan.roll p ~site:"io.torn" ~a ~b:attempt < p.torn in
      let errno =
        if Plan.roll p ~site:"io.errno" ~a ~b:attempt < 0.5 then
          "injected ENOSPC: no space left on device"
        else "injected EIO: input/output error"
      in
      Io_error { message = errno; torn }
    end
    else Io_ok

let poison_worker ~worker ~generation =
  match Atomic.get armed_plan with
  | None -> false
  | Some p ->
    p.poison > 0.
    && Plan.roll p ~site:"pool.poison" ~a:worker ~b:generation < p.poison
    &&
    (count "poison";
     true)
