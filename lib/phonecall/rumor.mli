(** The Random Phone-Call model (paper §1.1): the classical baseline the
    random-availability model is contrasted with.

    Synchronous rounds; in each round every vertex calls one neighbour
    chosen uniformly at random.  Under [Push] informed callers transmit
    the rumor, under [Pull] uninformed callers receive it from informed
    callees, [Push_pull] does both (Karp et al. [17]).  On the clique,
    push completes in [log2 n + ln n + o(log n)] rounds w.h.p.
    (Frieze–Grimmett [15]).

    The crucial modelling difference the paper points out: here
    randomness is available *every round* to the algorithm, whereas a
    random temporal network fixes one random moment per link in the
    input.  The experiments put both on the same axis. *)

type strategy =
  | Push
  | Pull
  | Push_pull
  | Push_pull_memory of int
      (** push-pull where each vertex avoids its last [k] call partners
          (Elsässer & Sauerwald [12]; Berenbrink et al. [3]): remembering
          a few previous choices provably cuts the transmission count to
          O(n log log n) while staying O(log n)-fast *)

val strategy_name : strategy -> string

type result = {
  rounds : int option;
      (** rounds until everyone is informed; [None] if [max_rounds] hit *)
  transmissions : int;  (** total rumor-carrying calls *)
  informed_per_round : int list;
      (** cumulative informed count after each round, starting with the
          initial [1] *)
}

val spread :
  ?max_rounds:int ->
  Prng.Rng.t ->
  Sgraph.Graph.t ->
  strategy ->
  source:int ->
  result
(** [spread rng g strategy ~source] simulates until everyone is informed
    or [max_rounds] (default [64 + 8·log2 n]) elapses.
    @raise Invalid_argument on a bad source or a vertex without
    neighbours to call. *)

val mean_rounds :
  Prng.Rng.t ->
  Sgraph.Graph.t ->
  strategy ->
  trials:int ->
  float * float
(** [(mean, stddev)] of the completion round over random sources and
    coin flips; incomplete runs count as the cap.

    Test support: test_phonecall compares {!spread}'s completion rounds
    across strategies through it. *)
