(* Bounded retry with capped exponential backoff, for transient IO.
   Policy knobs are explicit at the call site; the backoff never
   exceeds [max_delay_s], so even a persistently failing path fails
   fast (a handful of milliseconds) rather than hanging a run.

   Jitter is deterministic: attempt [k]'s delay is scaled by a factor
   derived from a pure [Plan.roll] of [(jitter_seed, k)], never from
   the wall clock or a shared RNG — so a faulted run that retries is
   as byte-identical as one that doesn't, while concurrent retriers
   seeded differently still decorrelate (no thundering herd against a
   recovering disk or socket).

   The optional budget caps total wall time spent inside the combinator
   (attempts plus sleeps): once the next sleep would land past the
   budget, the last failure is re-raised instead of retried.  A retry
   loop is a latency amplifier; the budget keeps it from amplifying a
   persistent fault into an unbounded stall on a deadline-bearing path
   (the serve engine's store reads are the motivating caller). *)

let backoff_delay ?(base_delay_s = 0.001) ?(max_delay_s = 0.05) ?(jitter = 0.)
    ?(jitter_seed = 0L) k =
  if jitter < 0. || jitter > 1. then
    invalid_arg "Retry.backoff_delay: jitter must be in [0, 1]";
  let d = Float.min max_delay_s (base_delay_s *. (2. ** float_of_int k)) in
  if jitter = 0. then d
  else begin
    (* Uniform factor in [1 - jitter/2, 1 + jitter/2], a pure function
       of (seed, attempt). *)
    let u =
      Plan.roll
        { Plan.default with seed = jitter_seed }
        ~site:"retry.jitter" ~a:k ~b:0
    in
    d *. (1. +. (jitter *. (u -. 0.5)))
  end

let with_backoff ?(attempts = 4) ?(base_delay_s = 0.001) ?(max_delay_s = 0.05)
    ?(jitter = 0.) ?(jitter_seed = 0L) ?budget_s ~retryable ~on_retry f =
  if attempts < 1 then invalid_arg "Retry.with_backoff: attempts must be >= 1";
  (match budget_s with
  | Some b when b < 0. -> invalid_arg "Retry.with_backoff: negative budget"
  | _ -> ());
  let started = Obs.Clock.wall_s () in
  let delay k =
    backoff_delay ~base_delay_s ~max_delay_s ~jitter ~jitter_seed k
  in
  (* A retry is allowed only when its backoff sleep still fits inside
     the budget; the attempt after the sleep may overrun (OCaml cannot
     preempt it), but the combinator never *chooses* to start one past
     the line. *)
  let within_budget k =
    match budget_s with
    | None -> true
    | Some b -> Obs.Clock.wall_s () -. started +. delay k <= b
  in
  let rec go k =
    match f k with
    | v -> v
    | exception e when k + 1 < attempts && retryable e && within_budget k ->
      on_retry k e;
      let d = delay k in
      if d > 0. then Unix.sleepf d;
      go (k + 1)
  in
  go 0
