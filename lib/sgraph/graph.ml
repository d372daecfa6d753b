type kind = Directed | Undirected

(* Flat CSR layout: arcs out of [v] occupy rows [out_off.(v)] to
   [out_off.(v+1) - 1] of the parallel [out_edge]/[out_vert] arrays (and
   symmetrically for incoming arcs).  Everything is an unboxed int
   array: no tuples, no per-vertex array headers, and adjacency scans
   touch two cache-friendly flat ranges instead of chasing pointers.
   For undirected graphs the in- and out-CSR are the same arc sequence,
   so they share storage. *)
type csr = {
  e_src : int array;  (* edge id -> source (min endpoint if undirected) *)
  e_dst : int array;
  out_off : int array;  (* length n + 1 *)
  out_edge : int array;  (* arc row -> edge id *)
  out_vert : int array;  (* arc row -> target vertex *)
  in_off : int array;
  in_edge : int array;
  in_vert : int array;  (* arc row -> source vertex *)
}

(* Besides the CSR, three regular topologies exist as *shapes*:
   O(1)-memory values whose adjacency, edge ids and endpoint decode are
   pure arithmetic on (n, rows, cols).  A shape is numbered as [create]
   numbers the list of its pairs consed in emission order, so edge id 0
   is the LAST pair emitted (the star excepted: its list is built in
   order).  Its iterators visit arcs in the edge-id-ascending order a
   CSR of that list appends them in.  That numbering is part of the
   output contract (label assignments draw per edge id); the tests
   check each shape against the CSR [create] makes of that list. *)
type shape =
  | Csr of csr
  | Clique of { transposed : bool }  (* directed unless t.kind says otherwise *)
  | Star  (* undirected; centre 0; edge e = (0, e+1) *)
  | Grid of { rows : int; cols : int }  (* undirected; row-major cells *)

type t = { kind : kind; n : int; shape : shape }

let kind t = t.kind
let is_directed t = t.kind = Directed
let n t = t.n

let m t =
  match t.shape with
  | Csr c -> Array.length c.e_src
  | Clique _ -> (
    match t.kind with
    | Directed -> t.n * (t.n - 1)
    | Undirected -> t.n * (t.n - 1) / 2)
  | Star -> t.n - 1
  | Grid { rows; cols } -> (rows * (cols - 1)) + (cols * (rows - 1))

let arc_count t =
  match t.kind with Directed -> m t | Undirected -> 2 * m t

(* ---------------------------------------------------------------- *)
(* Clique arithmetic.  Emission order: u ascending, v ascending
   (skipping u if directed, v > u if undirected); edge id e = m - 1 - k
   where k is the emission index. *)

(* Directed: k = u*(n-1) + idx with idx = v when v < u else v - 1. *)
let clique_dir_edge ~n ~m u v =
  m - 1 - ((u * (n - 1)) + if v < u then v else v - 1)

let clique_dir_endpoints ~n ~m e ~swap f =
  let k = m - 1 - e in
  let u = k / (n - 1) in
  let j = k mod (n - 1) in
  let v = if j < u then j else j + 1 in
  if swap then f e v u else f e u v

(* Undirected: pairs (u, v), u < v, in lex order; [off u] counts the
   pairs in blocks before u's. *)
let clique_und_off ~n u = u * ((2 * n) - 1 - u) / 2

let clique_und_edge ~n ~m u v =
  let u, v = if u < v then (u, v) else (v, u) in
  m - 1 - (clique_und_off ~n u + v - u - 1)

(* The block [u] holding emission index [k]: a float guess, exact for
   k < 2^53, then an integer fixup absorbs the sqrt rounding. *)
let clique_und_block ~n k =
  let fn = float_of_int ((2 * n) - 1) in
  let disc = (fn *. fn) -. (8.0 *. float_of_int k) in
  let disc = if disc > 0. then disc else 0. in
  let u = ref (Stdlib.max 0 (Stdlib.min (n - 2) (int_of_float ((fn -. sqrt disc) /. 2.0)))) in
  while !u < n - 2 && clique_und_off ~n (!u + 1) <= k do incr u done;
  while !u > 0 && clique_und_off ~n !u > k do decr u done;
  !u

let clique_und_endpoints ~n ~m e f =
  let k = m - 1 - e in
  let u = clique_und_block ~n k in
  f e u (u + 1 + (k - clique_und_off ~n u))

(* ---------------------------------------------------------------- *)
(* Grid arithmetic.  Emission order: per cell (r, c) in row-major
   order, the rightward edge then the downward edge.  A cell in a
   non-final row therefore owns 2 emission slots when c < cols-1 (h
   then v) and 1 otherwise (v); final-row cells own 1 horizontal slot.
   [grid_cell_start] is the emission index of cell (r, c)'s first
   slot. *)
let grid_cell_start ~rows ~cols r c =
  (r * ((2 * cols) - 1)) + (c * (1 + if r < rows - 1 then 1 else 0))

(* Emission index of the horizontal edge (r,c)-(r,c+1), c < cols-1. *)
let grid_h_emit ~rows ~cols r c = grid_cell_start ~rows ~cols r c

(* Emission index of the vertical edge (r,c)-(r+1,c), r < rows-1. *)
let grid_v_emit ~rows ~cols r c =
  grid_cell_start ~rows ~cols r c + if c < cols - 1 then 1 else 0

(* Cell [(r, c)]'s vertex.  Top level, so a decode applies it without
   building a closure. *)
let grid_cell ~cols r c = (r * cols) + c

let grid_endpoints ~rows ~cols ~m e f =
  let k = m - 1 - e in
  if cols = 1 then (* vertical chain: k-th emission is (k,0)-(k+1,0) *)
    f e (grid_cell ~cols k 0) (grid_cell ~cols (k + 1) 0)
  else begin
    let q = k / ((2 * cols) - 1) in
    if q >= rows - 1 then begin
      (* Final row: one horizontal slot per cell. *)
      let c = k - ((rows - 1) * ((2 * cols) - 1)) in
      f e (grid_cell ~cols (rows - 1) c) (grid_cell ~cols (rows - 1) (c + 1))
    end
    else begin
      let off = k mod ((2 * cols) - 1) in
      if off < 2 * (cols - 1) then
        let c = off / 2 in
        if off land 1 = 0 then
          f e (grid_cell ~cols q c) (grid_cell ~cols q (c + 1))
        else f e (grid_cell ~cols q c) (grid_cell ~cols (q + 1) c)
      else
        f e (grid_cell ~cols q (cols - 1)) (grid_cell ~cols (q + 1) (cols - 1))
    end
  end

(* ---------------------------------------------------------------- *)
(* Build the CSR indexes from validated endpoint arrays.  Arcs are
   appended in edge-id order, an undirected edge contributing u->v then
   v->u — the per-vertex arc order every deterministic consumer (walker
   sampling, journey tie-breaks) relies on. *)
let build kind n e_src e_dst =
  let m = Array.length e_src in
  let out_count = Array.make (n + 1) 0 in
  let in_count = if kind = Undirected then out_count else Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let u = e_src.(e) and v = e_dst.(e) in
    out_count.(u) <- out_count.(u) + 1;
    in_count.(v) <- in_count.(v) + 1
  done;
  let offsets count =
    let off = Array.make (n + 1) 0 in
    let sum = ref 0 in
    for v = 0 to n - 1 do
      off.(v) <- !sum;
      sum := !sum + count.(v)
    done;
    off.(n) <- !sum;
    (off, !sum)
  in
  let out_off, out_total = offsets out_count in
  let fill = Array.copy out_off in
  let out_edge = Array.make out_total 0 in
  let out_vert = Array.make out_total 0 in
  let csr =
    match kind with
    | Undirected ->
      (* Shared arc table: out rows of w are exactly the in rows of w
         (same edge, opposite endpoint), in the same append order. *)
      for e = 0 to m - 1 do
        let u = e_src.(e) and v = e_dst.(e) in
        let pu = fill.(u) in
        out_edge.(pu) <- e;
        out_vert.(pu) <- v;
        fill.(u) <- pu + 1;
        let pv = fill.(v) in
        out_edge.(pv) <- e;
        out_vert.(pv) <- u;
        fill.(v) <- pv + 1
      done;
      {
        e_src; e_dst;
        out_off; out_edge; out_vert;
        in_off = out_off; in_edge = out_edge; in_vert = out_vert;
      }
    | Directed ->
      let in_off, in_total = offsets in_count in
      let in_fill = Array.copy in_off in
      let in_edge = Array.make in_total 0 in
      let in_vert = Array.make in_total 0 in
      for e = 0 to m - 1 do
        let u = e_src.(e) and v = e_dst.(e) in
        let pu = fill.(u) in
        out_edge.(pu) <- e;
        out_vert.(pu) <- v;
        fill.(u) <- pu + 1;
        let pv = in_fill.(v) in
        in_edge.(pv) <- e;
        in_vert.(pv) <- u;
        in_fill.(v) <- pv + 1
      done;
      { e_src; e_dst; out_off; out_edge; out_vert; in_off; in_edge; in_vert }
  in
  { kind; n; shape = Csr csr }

let create kind ~n edges =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  let normalise (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.create: endpoint out of range (%d,%d)" u v);
    if u = v then invalid_arg "Graph.create: self-loop";
    match kind with
    | Directed -> (u, v)
    | Undirected -> if u < v then (u, v) else (v, u)
  in
  let edges = Array.of_list (List.map normalise edges) in
  let seen = Hashtbl.create (Array.length edges) in
  Array.iter
    (fun edge ->
      if Hashtbl.mem seen edge then
        invalid_arg "Graph.create: duplicate edge"
      else Hashtbl.add seen edge ())
    edges;
  build kind n (Array.map fst edges) (Array.map snd edges)

(* ---------------------------------------------------------------- *)
(* Shape constructors, O(1) memory: the only form [Gen] builds the
   clique, star and grid in. *)

let implicit_clique kind n =
  if n < 1 then invalid_arg "Graph.implicit_clique: need n >= 1";
  { kind; n; shape = Clique { transposed = false } }

let implicit_star n =
  if n < 2 then invalid_arg "Graph.implicit_star: need n >= 2";
  { kind = Undirected; n; shape = Star }

let implicit_grid ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Graph.implicit_grid: empty grid";
  { kind = Undirected; n = rows * cols; shape = Grid { rows; cols } }

let is_implicit t = match t.shape with Csr _ -> false | _ -> true

(* ---------------------------------------------------------------- *)

(* Edge [e]'s endpoints, passed to [f e u v] rather than returned as a
   pair: the one decode behind [edge_endpoints] and [iter_edge_ids],
   allocation-free for an [f] that allocates nothing. *)
let with_endpoints t e f =
  match t.shape with
  | Csr c -> f e c.e_src.(e) c.e_dst.(e)
  | Clique { transposed } ->
    (* Only a directed clique is ever transposed ([reverse]). *)
    (match t.kind with
    | Directed -> clique_dir_endpoints ~n:t.n ~m:(m t) e ~swap:transposed f
    | Undirected -> clique_und_endpoints ~n:t.n ~m:(m t) e f)
  | Star -> f e 0 (e + 1)
  | Grid { rows; cols } -> grid_endpoints ~rows ~cols ~m:(m t) e f

let edge_endpoints t e =
  if e < 0 || e >= m t then invalid_arg "Graph.edge_endpoints: bad edge id";
  with_endpoints t e (fun _ u v -> (u, v))

let edges t = Array.init (m t) (fun e -> edge_endpoints t e)

let iter_edges t f =
  match t.shape with
  | Csr c ->
    for e = 0 to Array.length c.e_src - 1 do
      f e c.e_src.(e) c.e_dst.(e)
    done
  | Clique { transposed } -> (
    (* Walk the emission order backwards — edge id ascending — with no
       per-edge division: this is the path the implicit-backend stream
       build takes over all m edges. *)
    let n = t.n in
    let e = ref 0 in
    match t.kind with
    | Directed ->
      for u = n - 1 downto 0 do
        for j = n - 2 downto 0 do
          let v = if j < u then j else j + 1 in
          if transposed then f !e v u else f !e u v;
          incr e
        done
      done
    | Undirected ->
      for u = n - 2 downto 0 do
        for v = n - 1 downto u + 1 do
          f !e u v;
          incr e
        done
      done)
  | Star ->
    for e = 0 to t.n - 2 do
      f e 0 (e + 1)
    done
  | Grid { rows; cols } ->
    let e = ref 0 in
    let cell r c = (r * cols) + c in
    for r = rows - 1 downto 0 do
      for c = cols - 1 downto 0 do
        (* Per cell, edge ids run against emission (h then v): v then h. *)
        if r + 1 < rows then begin
          f !e (cell r c) (cell (r + 1) c);
          incr e
        end;
        if c + 1 < cols then begin
          f !e (cell r c) (cell r (c + 1));
          incr e
        end
      done
    done

(* The edges a caller listed, in its order: on a CSR two array reads
   per id, on a shape the arithmetic decode; a visit allocates nothing,
   and an edge that is not listed is not touched.  On a clique each
   source [u] owns a block of consecutive emission indices,
   [lo, lo + size); the loop keeps the block of the last id and
   decodes afresh only for an id outside it (the empty block at the
   start holds none), so a sorted list pays one decode per block
   instead of one per id. *)
let[@inline always] listed_id ids ~m j =
  let e = Array.unsafe_get ids j in
  if e < 0 || e >= m then invalid_arg "Graph.iter_edge_ids: bad edge id";
  e

let iter_edge_ids t ids ~len f =
  if len < 0 || len > Array.length ids then
    invalid_arg "Graph.iter_edge_ids: length outside the id array";
  let m = m t in
  match t.shape with
  | Csr c ->
    for j = 0 to len - 1 do
      let e = listed_id ids ~m j in
      f e (Array.unsafe_get c.e_src e) (Array.unsafe_get c.e_dst e)
    done
  | Clique { transposed } ->
    (* Only a directed clique is ever transposed ([reverse]). *)
    let n = t.n and directed = t.kind = Directed in
    let u = ref 0 and lo = ref 0 and size = ref 0 in
    for j = 0 to len - 1 do
      let e = listed_id ids ~m j in
      let k = m - 1 - e in
      if k < !lo || k >= !lo + !size then begin
        u := if directed then k / (n - 1) else clique_und_block ~n k;
        lo := if directed then !u * (n - 1) else clique_und_off ~n !u;
        size := if directed then n - 1 else n - 1 - !u
      end;
      let i = k - !lo in
      if not directed then f e !u (!u + 1 + i)
      else begin
        let v = if i < !u then i else i + 1 in
        if transposed then f e v !u else f e !u v
      end
    done
  | Star | Grid _ ->
    for j = 0 to len - 1 do
      with_endpoints t (listed_id ids ~m j) f
    done

(* Arcs out of / into a vertex, in edge-id-ascending order — exactly
   the order the CSR build appends them in. *)
let iter_out t v f =
  match t.shape with
  | Csr c ->
    for i = c.out_off.(v) to c.out_off.(v + 1) - 1 do
      f (Array.unsafe_get c.out_edge i) (Array.unsafe_get c.out_vert i)
    done
  | Clique { transposed } -> (
    let n = t.n in
    match t.kind with
    | Directed ->
      if transposed then begin
        (* Out-arcs of the transpose are in-arcs of the base clique. *)
        let mm = m t in
        for u = n - 1 downto 0 do
          if u <> v then f (clique_dir_edge ~n ~m:mm u v) u
        done
      end
      else begin
        let base = m t - 1 - (v * (n - 1)) in
        for j = n - 2 downto 0 do
          f (base - j) (if j < v then j else j + 1)
        done
      end
    | Undirected ->
      let mm = m t in
      for w = n - 1 downto v + 1 do
        f (clique_und_edge ~n ~m:mm v w) w
      done;
      for u = v - 1 downto 0 do
        f (clique_und_edge ~n ~m:mm u v) u
      done)
  | Star ->
    if v = 0 then
      for e = 0 to t.n - 2 do
        f e (e + 1)
      done
    else f (v - 1) 0
  | Grid { rows; cols } ->
    let mm = m t in
    let r = v / cols and c = v mod cols in
    let cell r c = (r * cols) + c in
    (* Edge-id ascending = emission descending: down, right, left, up. *)
    if r < rows - 1 then f (mm - 1 - grid_v_emit ~rows ~cols r c) (cell (r + 1) c);
    if c < cols - 1 then f (mm - 1 - grid_h_emit ~rows ~cols r c) (cell r (c + 1));
    if c > 0 then f (mm - 1 - grid_h_emit ~rows ~cols r (c - 1)) (cell r (c - 1));
    if r > 0 then f (mm - 1 - grid_v_emit ~rows ~cols (r - 1) c) (cell (r - 1) c)

let iter_in t v f =
  match t.shape with
  | Csr c ->
    for i = c.in_off.(v) to c.in_off.(v + 1) - 1 do
      f (Array.unsafe_get c.in_edge i) (Array.unsafe_get c.in_vert i)
    done
  | Clique { transposed } when t.kind = Directed ->
    let n = t.n in
    let mm = m t in
    if transposed then begin
      let base = mm - 1 - (v * (n - 1)) in
      for j = n - 2 downto 0 do
        f (base - j) (if j < v then j else j + 1)
      done
    end
    else
      for u = n - 1 downto 0 do
        if u <> v then f (clique_dir_edge ~n ~m:mm u v) u
      done
  | Clique _ | Star | Grid _ -> iter_out t v f

let out_degree t v =
  match t.shape with
  | Csr c -> c.out_off.(v + 1) - c.out_off.(v)
  | Clique _ -> t.n - 1
  | Star -> if v = 0 then t.n - 1 else 1
  | Grid { rows; cols } ->
    let r = v / cols and c = v mod cols in
    (if r > 0 then 1 else 0)
    + (if r < rows - 1 then 1 else 0)
    + (if c > 0 then 1 else 0)
    + if c < cols - 1 then 1 else 0

let in_degree t v =
  match t.shape with
  | Csr c -> c.in_off.(v + 1) - c.in_off.(v)
  | Clique _ | Star | Grid _ -> out_degree t v

let out_arcs t v =
  match t.shape with
  | Csr c ->
    let lo = c.out_off.(v) in
    Array.init (c.out_off.(v + 1) - lo) (fun i ->
        (c.out_edge.(lo + i), c.out_vert.(lo + i)))
  | _ ->
    let arr = Array.make (out_degree t v) (0, 0) in
    let i = ref 0 in
    iter_out t v (fun e w ->
        arr.(!i) <- (e, w);
        incr i);
    arr

let in_arcs t v =
  match t.shape with
  | Csr c ->
    let lo = c.in_off.(v) in
    Array.init (c.in_off.(v + 1) - lo) (fun i ->
        (c.in_edge.(lo + i), c.in_vert.(lo + i)))
  | _ ->
    let arr = Array.make (in_degree t v) (0, 0) in
    let i = ref 0 in
    iter_in t v (fun e w ->
        arr.(!i) <- (e, w);
        incr i);
    arr

let out_neighbors t v = Array.map snd (out_arcs t v)

let find_edge t u v =
  match t.shape with
  | Csr c ->
    let rec scan i =
      if i >= c.out_off.(u + 1) then None
      else if c.out_vert.(i) = v then Some c.out_edge.(i)
      else scan (i + 1)
    in
    scan c.out_off.(u)
  | Clique { transposed } ->
    if u = v || u < 0 || v < 0 || u >= t.n || v >= t.n then None
    else
      Some
        (match t.kind with
        | Directed ->
          if transposed then clique_dir_edge ~n:t.n ~m:(m t) v u
          else clique_dir_edge ~n:t.n ~m:(m t) u v
        | Undirected -> clique_und_edge ~n:t.n ~m:(m t) u v)
  | Star ->
    if u = 0 && v > 0 && v < t.n then Some (v - 1)
    else if v = 0 && u > 0 && u < t.n then Some (u - 1)
    else None
  | Grid { rows; cols } ->
    if u < 0 || v < 0 || u >= t.n || v >= t.n then None
    else begin
      let a, b = if u < v then (u, v) else (v, u) in
      let ra = a / cols and ca = a mod cols in
      let mm = m t in
      if b = a + 1 && ca < cols - 1 then
        Some (mm - 1 - grid_h_emit ~rows ~cols ra ca)
      else if b = a + cols && ra < rows - 1 then
        Some (mm - 1 - grid_v_emit ~rows ~cols ra ca)
      else None
    end

let mem_edge t u v = find_edge t u v <> None

let reverse t =
  match t.shape with
  | Csr c -> (
    match t.kind with
    | Undirected -> t
    | Directed ->
      {
        t with
        shape =
          Csr
            {
              e_src = c.e_dst;
              e_dst = c.e_src;
              out_off = c.in_off;
              out_edge = c.in_edge;
              out_vert = c.in_vert;
              in_off = c.out_off;
              in_edge = c.out_edge;
              in_vert = c.out_vert;
            };
      })
  | Clique { transposed } when t.kind = Directed ->
    { t with shape = Clique { transposed = not transposed } }
  | Clique _ | Star | Grid _ -> t

let pp ppf t =
  Format.fprintf ppf "%s graph: n=%d m=%d"
    (match t.kind with Directed -> "directed" | Undirected -> "undirected")
    t.n (m t)
