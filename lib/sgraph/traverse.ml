let unreachable = max_int

(* Core BFS over the CSR adjacency: [dist] and [queue] must each hold at
   least [n] entries; only [dist.(0 .. n-1)] is meaningful afterwards.
   [parent] is optional so the distance-only callers skip the second
   write.  The flat int queue replaces [Stdlib.Queue] — each vertex is
   enqueued at most once, so [n] slots suffice and nothing allocates. *)
let bfs_core g s ~dist ~queue ~parent =
  let n = Graph.n g in
  if s < 0 || s >= n then invalid_arg "Traverse.bfs: source out of range";
  Array.fill dist 0 n unreachable;
  (match parent with Some p -> Array.fill p 0 n (-1) | None -> ());
  dist.(s) <- 0;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  let visit u v =
    if dist.(v) = unreachable then begin
      dist.(v) <- dist.(u) + 1;
      (match parent with Some p -> p.(v) <- u | None -> ());
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    Graph.iter_out g u (fun _ v -> visit u v)
  done

let bfs_into g s ~dist ~queue = bfs_core g s ~dist ~queue ~parent:None

let bfs g s =
  let n = Graph.n g in
  let dist = Array.make (Stdlib.max 1 n) unreachable in
  let queue = Array.make (Stdlib.max 1 n) 0 in
  bfs_into g s ~dist ~queue;
  dist

let bfs_tree g s =
  let n = Graph.n g in
  let dist = Array.make (Stdlib.max 1 n) unreachable in
  let parent = Array.make (Stdlib.max 1 n) (-1) in
  let queue = Array.make (Stdlib.max 1 n) 0 in
  bfs_core g s ~dist ~queue ~parent:(Some parent);
  (dist, parent)
