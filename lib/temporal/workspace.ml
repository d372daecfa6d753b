(* Per-domain scratch arrays for the temporal kernels.

   An n-source all-pairs sweep used to allocate two fresh n-arrays per
   source (arrival + predecessor); with trial-level parallelism the
   allocator churn multiplied across domains.  Each domain instead owns
   one lazily grown workspace, fetched through [Domain.DLS] — so the
   same arrays serve every sweep a domain runs, including [Exec.Pool]
   worker domains, and no locking is ever needed. *)

type t = {
  mutable arrival : int array;  (* foremost/flooding arrivals *)
  mutable pred : int array;  (* stream predecessor indices *)
  mutable dist : int array;  (* static BFS distances *)
  mutable queue : int array;  (* static BFS ring queue *)
  (* Batch-kernel slots (Batch.sweep): per-vertex lane bitmasks, the
     per-label-group delta accumulator and its dirty stack, the
     lane-strided arrival matrix, and the two per-lane vectors. *)
  mutable lane_reached : int array;  (* one lane-mask word per vertex *)
  mutable lane_delta : int array;  (* current label group's new bits *)
  mutable lane_dirty : int array;  (* vertices touched this group, + 1 spare *)
  mutable lane_arrival : int array;  (* arrival.(v * lanes + lane) *)
  mutable lane_counts : int array;  (* per-lane reached counts *)
  mutable lane_ecc : int array;  (* per-lane saturation labels *)
}

let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        arrival = [||];
        pred = [||];
        dist = [||];
        queue = [||];
        lane_reached = [||];
        lane_delta = [||];
        lane_dirty = [||];
        lane_arrival = [||];
        lane_counts = [||];
        lane_ecc = [||];
      })

(* Grow to the next power of two >= n so a mixed workload of sizes
   settles after O(log) reallocations. *)
let capacity_for n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

(* Growths are per domain (each domain's workspace grows on its own
   schedule), so the counter's value depends on the job count — run
   ledgers file it under the volatile section.  Batch-slot growths
   below feed the same per-domain instrument. *)
let growth_c = Obs.Metrics.counter "kernel.workspace_growths"

let get ~n =
  if n < 0 then invalid_arg "Workspace.get: negative size";
  let ws = Domain.DLS.get key in
  if Array.length ws.arrival < n then begin
    let c = capacity_for n in
    if Obs.Control.enabled () then Obs.Metrics.incr growth_c;
    ws.arrival <- Array.make c 0;
    ws.pred <- Array.make c 0;
    ws.dist <- Array.make c 0;
    ws.queue <- Array.make c 0
  end;
  ws

(* Batch slots grow on their own schedule so scalar-only workloads never
   pay for them.  Capacities are measured in *words*, not vertices: the
   bitset slots hold one lane-mask word per vertex (n words) and the
   arrival matrix holds [lanes] words per vertex (n * lanes words), and
   each is rounded to the next power of two of its own word count —
   never pow2(vertices) * lanes, which is not a power of two and would
   defeat the settle-after-O(log)-growths argument above. *)
let get_batch ~n ~lanes =
  if n < 0 then invalid_arg "Workspace.get_batch: negative size";
  if lanes < 1 then invalid_arg "Workspace.get_batch: lanes must be >= 1";
  let ws = Domain.DLS.get key in
  let matrix_words = n * lanes in
  if
    Array.length ws.lane_reached < n
    || Array.length ws.lane_arrival < matrix_words
  then begin
    if Obs.Control.enabled () then Obs.Metrics.incr growth_c;
    if Array.length ws.lane_reached < n then begin
      let c = capacity_for n in
      ws.lane_reached <- Array.make c 0;
      ws.lane_delta <- Array.make c 0;
      ws.lane_dirty <- Array.make (c + 1) 0
    end;
    if Array.length ws.lane_arrival < matrix_words then
      ws.lane_arrival <- Array.make (capacity_for matrix_words) 0;
    if Array.length ws.lane_counts < Sys.int_size then begin
      ws.lane_counts <- Array.make Sys.int_size 0;
      ws.lane_ecc <- Array.make Sys.int_size 0
    end
  end;
  ws

(* The word-plane-only variant for arrival-free batch kernels
   ([Batch.sweep_diameter], [Batch.sweep_reach]): grows the n-word
   bitset planes and the Sys.int_size-word per-lane vectors but NEVER
   the n * lanes arrival matrix — the sizing contract the implicit
   backend relies on at n = 10^5+, where a single n * lane_width matrix
   would be 50 MB of scratch per domain for kernels that don't read
   it. *)
let get_batch_planes ~n =
  if n < 0 then invalid_arg "Workspace.get_batch_planes: negative size";
  let ws = Domain.DLS.get key in
  if Array.length ws.lane_reached < n || Array.length ws.lane_counts = 0 then begin
    if Obs.Control.enabled () then Obs.Metrics.incr growth_c;
    if Array.length ws.lane_reached < n then begin
      let c = capacity_for n in
      ws.lane_reached <- Array.make c 0;
      ws.lane_delta <- Array.make c 0;
      ws.lane_dirty <- Array.make (c + 1) 0
    end;
    if Array.length ws.lane_counts < Sys.int_size then begin
      ws.lane_counts <- Array.make Sys.int_size 0;
      ws.lane_ecc <- Array.make Sys.int_size 0
    end
  end;
  ws
