(* Which temporal-instance representation the suite builds: dense
   (materialized label arrays and a full counting-sorted stream — the
   original backend) or implicit (derived labels recomputed from a
   64-bit seed, lazy prefix streams — O(n) working set on the
   normalized clique instead of O(n^2)).

   The selection is a process-wide mode, set once from the CLI before
   any experiment runs; experiments consult it when they build
   instances.  Both backends realise the SAME instance for the same
   seed — Tgraph.materialize of a derived net is label-identical to
   it — so switching backends changes memory and time, never a
   number.  The mode is part of every cache key (Store.Key) and is
   recorded in the run ledger, so outcomes computed under one backend
   are never served to a run under the other, even though they would
   agree. *)

type t = Dense | Implicit

let mode = Atomic.make Dense
let set b = Atomic.set mode b
let current () = Atomic.get mode
let to_string = function Dense -> "dense" | Implicit -> "implicit"

let all = [ Dense; Implicit ]

(* The XL gate: EPHEMERAL_IMPLICIT_XL=1 unlocks the sampled n = 10^6
   row of e23 (hours of label rolls on one core — strictly opt-in).
   It changes rendered output, so it must be part of the cache key;
   [tag] is the key/ledger spelling that folds it in. *)
let xl_enabled () =
  match Sys.getenv_opt "EPHEMERAL_IMPLICIT_XL" with
  | Some "" | Some "0" | None -> false
  | Some _ -> true

let tag () =
  to_string (current ()) ^ if xl_enabled () then "+xl" else ""
