module Graph = Sgraph.Graph

let of_fun g ~a f = Tgraph.create g ~lifetime:a (Array.init (Graph.m g) f)

(* Implicit twins: one bits64 draw seeds the whole instance; every
   label is recomputed on demand from (seed, edge id, roll index)
   instead of being stored.  [Tgraph.materialize] of the result is
   label-identical to it — both backends evaluate the same site
   function — which is what the equivalence suite pins.  Note the
   labels are NOT the ones [uniform_single] would draw from the same
   rng (that path consumes m sequential xoshiro outputs); the implicit
   constructors define their own, equally uniform, distribution. *)
let uniform_multi_implicit rng g ~a ~r =
  if r < 1 then invalid_arg "Assignment.uniform_multi_implicit: r must be >= 1";
  Tgraph.of_derived g ~a ~seed:(Prng.Rng.bits64 rng) ~r

let uniform_single_implicit rng g ~a = uniform_multi_implicit rng g ~a ~r:1

let draw_multi rng ~r draw_one =
  Label.of_list (List.init r (fun _ -> draw_one rng))

let uniform_multi rng g ~a ~r =
  if r < 0 then invalid_arg "Assignment.uniform_multi: r must be >= 0";
  of_fun g ~a (fun _ -> draw_multi rng ~r (fun rng -> 1 + Prng.Rng.int rng a))

(* Flat fast path: one RNG draw per edge straight into a two-byte cell
   — same edge-id draw order as the of_fun route, but no Label.t boxing
   (the normalized U-RTN clique would otherwise allocate m singleton
   arrays per trial).  [Tgraph.of_uniform_draws] draws through
   [Rng.fill_int], exactly the draws of a [1 + Rng.int rng a] loop with
   the generator state held in registers, and that loop is the only
   pass over the labels: it also lists the first label band.  Past
   a = 65535, the most a cell holds, the same draws make
   [uniform_multi ~r:1]'s singleton sets. *)
let uniform_single rng g ~a =
  if a > Prng.Cells.max_value then uniform_multi rng g ~a ~r:1
  else Tgraph.of_uniform_draws rng g ~lifetime:a

let normalized_uniform rng g = uniform_single rng g ~a:(Graph.n g)

let of_dist rng dist g ~a ~r =
  if r < 0 then invalid_arg "Assignment.of_dist: r must be >= 0";
  let sampler = Prng.Dist.Sampler.create dist ~a in
  of_fun g ~a (fun _ -> draw_multi rng ~r (Prng.Dist.Sampler.draw sampler))

let periodic rng g ~a ~period =
  if period < 1 then invalid_arg "Assignment.periodic: period must be >= 1";
  of_fun g ~a (fun _ ->
      let phase = 1 + Prng.Rng.int rng period in
      let rec ticks t acc = if t > a then acc else ticks (t + period) (t :: acc) in
      Label.of_list (ticks phase []))

let bursty rng g ~a ~burst ~rate =
  if burst < 1 then invalid_arg "Assignment.bursty: burst must be >= 1";
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg "Assignment.bursty: rate not in [0,1]";
  of_fun g ~a (fun _ ->
      let labels = ref [] in
      let t = ref 1 in
      while !t <= a do
        if Prng.Rng.bernoulli rng rate then begin
          for offset = 0 to burst - 1 do
            if !t + offset <= a then labels := (!t + offset) :: !labels
          done;
          t := !t + burst
        end
        else incr t
      done;
      Label.of_list !labels)

let constant g ~a labels = of_fun g ~a (fun _ -> labels)
let all_times g ~a = constant g ~a (Label.range 1 a)
