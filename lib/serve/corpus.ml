(* The corpus a server loads at startup: named temporal instances
   described by compact specs, one per manifest line.

   A spec is comma-separated [key=value] pairs:

     id=clq1k,family=clique,n=1024,a=1024,r=1,seed=7

   [id], [family] and [n] are required; [a] defaults to [n], [r] to 1,
   [seed] to 1.  The instance realised is exactly the experiment
   pipeline's: topology from [Family.build] under [Rng.create seed],
   labels the [r] derived draws over [{1..a}] from the same seed — so
   the dense and implicit backends serve label-identical instances and
   every reply is byte-comparable across backends (the chaos oracle
   depends on this).

   Loading is *degraded-tolerant*: a malformed line or a spec whose
   build raises yields a [Failed] instance that the server keeps in
   its table and answers [Unavailable] for, while every healthy
   instance serves normally.  A corpus is unusable only when it is
   empty or every instance failed. *)

type spec = {
  id : string;
  family : Sim.Family.t;
  n : int;
  a : int;
  r : int;
  seed : int;
}

type status = Available of Temporal.Tgraph.t | Failed of string

type instance = { spec_id : string; spec : spec option; status : status }

type t = { backend : Sim.Backend.t; instances : instance array }

let spec_to_string s =
  Printf.sprintf "id=%s,family=%s,n=%d,a=%d,r=%d,seed=%d" s.id
    (Sim.Family.to_string s.family)
    s.n s.a s.r s.seed

(* Best-effort [id=] extraction from a line that failed full parsing,
   so a degraded entry still has a stable name to answer for. *)
let salvage_id line ~lineno =
  let fields = String.split_on_char ',' line in
  let from_field f =
    match String.index_opt f '=' with
    | Some i when String.sub f 0 i |> String.trim |> String.lowercase_ascii
                  = "id" ->
      let v = String.trim (String.sub f (i + 1) (String.length f - i - 1)) in
      if v = "" then None else Some v
    | _ -> None
  in
  match List.find_map from_field fields with
  | Some id -> id
  | None -> Printf.sprintf "line%d" lineno

let parse_spec line =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let fields =
    String.split_on_char ',' line
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
      match String.index_opt f '=' with
      | None -> err "field %S is not key=value" f
      | Some i ->
        let k = String.lowercase_ascii (String.trim (String.sub f 0 i)) in
        let v = String.trim (String.sub f (i + 1) (String.length f - i - 1)) in
        if List.mem_assoc k acc then err "duplicate key %S" k
        else collect ((k, v) :: acc) rest)
  in
  match collect [] fields with
  | Error _ as e -> e
  | Ok kvs -> (
    let known = [ "id"; "family"; "n"; "a"; "r"; "seed" ] in
    match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
    | Some (k, _) -> err "unknown key %S" k
    | None -> (
      let get k = List.assoc_opt k kvs in
      let get_int k default =
        match get k with
        | None -> Ok default
        | Some v -> (
          match int_of_string_opt v with
          | Some i -> Ok i
          | None -> err "%s=%S is not an integer" k v)
      in
      match (get "id", get "family") with
      | None, _ | Some "", _ -> err "missing id"
      | _, None -> err "missing family"
      | Some id, Some fam -> (
        match Sim.Family.of_string fam with
        | Error (`Msg m) -> Error m
        | Ok family -> (
          match get_int "n" 0 with
          | Error _ as e -> e
          | Ok n when n < 1 -> err "missing or non-positive n"
          | Ok n -> (
            match (get_int "a" n, get_int "r" 1, get_int "seed" 1) with
            | Ok a, Ok r, Ok seed ->
              if a < 1 then err "a must be >= 1"
              else if r < 1 then err "r must be >= 1"
              else Ok { id; family; n; a; r; seed }
            | (Error _ as e), _, _ | _, (Error _ as e), _ | _, _, (Error _ as e)
              -> e)))))

(* The backend decides only how labels are stored: the topology is
   [Family.build]'s on both (an arithmetic shape for the clique, star
   and grid, so a large clique holds no O(n^2) topology either way). *)
let build_spec backend s =
  let g = Sim.Family.build s.family (Prng.Rng.create s.seed) ~n:s.n in
  let net =
    Temporal.Tgraph.of_derived g ~a:s.a ~seed:(Int64.of_int s.seed) ~r:s.r
  in
  match backend with
  | Sim.Backend.Implicit -> net
  | Sim.Backend.Dense -> Temporal.Tgraph.materialize net

let load_spec backend s =
  match build_spec backend s with
  | net -> { spec_id = s.id; spec = Some s; status = Available net }
  | exception e ->
    { spec_id = s.id; spec = Some s; status = Failed (Printexc.to_string e) }

let is_comment line =
  let t = String.trim line in
  t = "" || t.[0] = '#'

(* Consistent-hash routing: FNV-1a 64-bit over the instance id, mod
   the shard count.  The router and every shard worker compute this
   independently from the id alone, so their partition agreement is by
   construction — no routing table is exchanged.  The id used is the
   *post-salvage* one (so even an unparsable manifest line lands on a
   deterministic shard), which is why partition filtering happens
   after id determination, never on the raw line. *)
let shard_of ~shards id =
  if shards <= 1 then 0
  else begin
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
               0x100000001b3L)
      id;
    Int64.to_int (Int64.unsigned_rem !h (Int64.of_int shards))
  end

(* The id of a manifest line — parsed when possible, salvaged when
   not — without building the instance.  This is the id [load] will
   serve the line under, so routing decisions made from these ids
   match what the owning shard actually loads. *)
let line_id line ~lineno =
  match parse_spec line with
  | Ok s -> s.id
  | Error _ -> salvage_id line ~lineno

let manifest_ids lines =
  let _, ids =
    List.fold_left
      (fun (lineno, acc) line ->
        let lineno = lineno + 1 in
        if is_comment line then (lineno, acc)
        else (lineno, line_id line ~lineno :: acc))
      (0, []) lines
  in
  List.rev ids

let load ?shard ~backend lines =
  let owned id =
    match shard with
    | None -> true
    | Some (index, total) -> shard_of ~shards:total id = index
  in
  let _, instances =
    List.fold_left
      (fun (lineno, acc) line ->
        let lineno = lineno + 1 in
        if is_comment line then (lineno, acc)
        else
          (* Ownership is decided before any building, so a shard
             pays nothing for the (shards-1)/shards of the manifest
             it does not serve. *)
          match parse_spec line with
          | Ok s ->
            if owned s.id then (lineno, load_spec backend s :: acc)
            else (lineno, acc)
          | Error m ->
            let id = salvage_id line ~lineno in
            if owned id then
              ( lineno,
                { spec_id = id;
                  spec = None;
                  status = Failed (Printf.sprintf "bad spec: %s" m) }
                :: acc )
            else (lineno, acc))
      (0, []) lines
  in
  { backend; instances = Array.of_list (List.rev instances) }

let backend t = t.backend

let find t id =
  Array.find_opt (fun i -> i.spec_id = id) t.instances

let instances t = Array.to_list t.instances

let available t =
  Array.to_list t.instances
  |> List.filter_map (fun i ->
         match i.status with
         | Available net -> Some (i.spec_id, net)
         | Failed _ -> None)

let healthy t =
  Array.exists
    (fun i -> match i.status with Available _ -> true | _ -> false)
    t.instances

(* Rows for the LIST reply, in manifest order: (id, status, detail). *)
let list_rows t =
  Array.to_list t.instances
  |> List.map (fun i ->
         match i.status with
         | Available net ->
           ( i.spec_id,
             "available",
             Printf.sprintf "n=%d a=%d %s" (Temporal.Tgraph.n net)
               (Temporal.Tgraph.lifetime net)
               (Sim.Backend.to_string t.backend) )
         | Failed m -> (i.spec_id, "failed", m))
