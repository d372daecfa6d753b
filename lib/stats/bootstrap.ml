let interval ?(confidence = 0.95) ?(resamples = 1000) ?(widen = 1.0) ~statistic
    rng xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bootstrap.interval: empty sample";
  if not (confidence > 0. && confidence < 1.) then
    invalid_arg "Bootstrap.interval: confidence must be in (0,1)";
  if resamples < 1 then invalid_arg "Bootstrap.interval: resamples must be >= 1";
  if not (widen >= 1.) then invalid_arg "Bootstrap.interval: widen must be >= 1";
  let stats =
    Array.init resamples (fun _ ->
        let resample = Array.init n (fun _ -> xs.(Prng.Rng.int rng n)) in
        statistic resample)
  in
  let tail = (1. -. confidence) /. 2. in
  let ci =
    {
      Ci.lo = Quantile.quantile stats tail;
      hi = Quantile.quantile stats (1. -. tail);
    }
  in
  (* A degraded run (trials dropped by --keep-going) widens the CI
     around its midpoint to own up to the thinner sample.  widen = 1.
     must stay bit-identical to the unwidened interval, so it touches
     nothing. *)
  if widen = 1.0 then ci
  else begin
    let mid = (ci.lo +. ci.hi) /. 2. in
    let half = (ci.hi -. ci.lo) /. 2. in
    { Ci.lo = mid -. (half *. widen); hi = mid +. (half *. widen) }
  end

let mean xs =
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let mean_interval ?confidence ?resamples ?widen rng xs =
  interval ?confidence ?resamples ?widen ~statistic:mean rng xs
