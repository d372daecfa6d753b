(* Workload definitions and everything derived from the workload seed:
   trial seeds, served instance specs and the query stream.  All of it
   is a pure function of (seed, position), so a connection can continue
   its stream from any index and the checker can recompute any query
   after the timed phase. *)

type kind = Trial | Serve

type workload = {
  name : string;
  kind : kind;
  n : int;  (** vertices per clique *)
  instances : int;  (** served instances (1 for trials) *)
  hot_sources : int;  (** sources the query stream draws from *)
  cache_rows : int;  (** server [--cache-rows] *)
}

(* Why these two: see perfbench/README.md.  Sizes are fixed here, not
   flags, so two commits always run identical inputs. *)
let workloads =
  [
    { name = "trial-dense"; kind = Trial; n = 1024; instances = 1; hot_sources = 0;
      cache_rows = 0 };
    { name = "serve-hot"; kind = Serve; n = 256; instances = 1; hot_sources = 32;
      cache_rows = 4096 };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* SplitMix64: the finalizer decorrelates neighbouring positions. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(logxor z (shift_right_logical z 31))

let golden = 0x9e3779b97f4a7c15L

let hash seed parts =
  List.fold_left
    (fun h p -> mix64 (Int64.add (Int64.logxor h (Int64.of_int p)) golden))
    (mix64 (Int64.of_int seed))
    parts

(* Stream tags keep the derived families apart. *)
let tag_trial = 1
let tag_instance = 2
let tag_hot = 3
let tag_query = 4

let below h bound = Int64.to_int (Int64.unsigned_rem h (Int64.of_int bound))

(* Seeds are kept below 2^30 so they print and parse as plain ints in a
   manifest line. *)
let trial_seed ~seed ~slot i = below (hash seed [ tag_trial; slot; i ]) (1 lsl 30)

let instance_seed ~seed i = below (hash seed [ tag_instance; i ]) (1 lsl 30)
let instance_id w i = if w.instances = 1 then "g" else Printf.sprintf "g%d" i

let manifest w ~seed =
  List.init w.instances (fun i ->
      Printf.sprintf "id=%s,family=clique,n=%d,a=%d,r=1,seed=%d" (instance_id w i) w.n
        w.n (instance_seed ~seed i))

(* The hot source set: the first [hot_sources] entries of a seeded
   Fisher-Yates shuffle of the vertices. *)
let hot_set w ~seed =
  let p = Array.init w.n Fun.id in
  for i = w.n - 1 downto 1 do
    let j = below (hash seed [ tag_hot; i ]) (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  Array.sub p 0 (min w.n w.hot_sources)

type query = { inst : int; source : int; target : int }

(* Query [i] of connection [conn]: instance uniform, source uniform over
   the hot set, target uniform over the vertices. *)
let query w ~seed ~hot ~conn i =
  let h = hash seed [ tag_query; conn; i ] in
  let h2 = mix64 h and h3 = mix64 (Int64.add h golden) in
  { inst = below h2 w.instances; source = hot.(below h (Array.length hot)); target = below h3 w.n }
