(* The `ephemeral-serve-ledger` renderer and the STATS text codec,
   shared by the single-process server and the sharded router (which
   merges per-shard tallies into one ledger at drain).

   The ledger splits into two sections on purpose:

   - [deterministic]: a pure function of (corpus manifest, backend,
     queue bound) — byte-identical run to run AND at any shard count,
     which is what CI diffs;
   - [volatile]: tallies and timings that depend on traffic and wall
     clock.  A sharded run records the shard count here, never in the
     deterministic section.

   Hand-rolled line-based JSON, same dialect as the run ledger: stable
   key order, one key per line, so downstream checks can grep
   ["queue_peak":] without a JSON parser. *)

let json_float f =
  if Float.is_nan f || Float.is_integer f then
    Printf.sprintf "%.1f" (if Float.is_nan f then 0. else f)
  else Printf.sprintf "%.6g" f

type volatile = {
  queries : int;
  shed : int;
  expired : int;
  cache_hits : int;
  store_hits : int;
  sweeps : int;
  evictions : int;
  queue_peak : int;
  p50_ms : float;
  p99_ms : float;
  qps : float;
  wall_s : float;
  shards : int option;  (* None = single-process serve *)
}

let zero =
  {
    queries = 0;
    shed = 0;
    expired = 0;
    cache_hits = 0;
    store_hits = 0;
    sweeps = 0;
    evictions = 0;
    queue_peak = 0;
    p50_ms = 0.;
    p99_ms = 0.;
    qps = 0.;
    wall_s = 0.;
    shards = None;
  }

let of_stats (s : Engine.stats) =
  {
    zero with
    queries = s.Engine.queries;
    shed = s.Engine.shed;
    expired = s.Engine.expired;
    cache_hits = s.Engine.cache_hits;
    store_hits = s.Engine.store_hits;
    sweeps = s.Engine.sweeps;
    evictions = s.Engine.evictions;
    queue_peak = s.Engine.queue_peak;
  }

(* Tallies sum across shards; the queue bound held iff it held in every
   shard, so the merged peak is the max. *)
let merge_volatile vs ~shards =
  List.fold_left
    (fun acc v ->
      {
        acc with
        queries = acc.queries + v.queries;
        shed = acc.shed + v.shed;
        expired = acc.expired + v.expired;
        cache_hits = acc.cache_hits + v.cache_hits;
        store_hits = acc.store_hits + v.store_hits;
        sweeps = acc.sweeps + v.sweeps;
        evictions = acc.evictions + v.evictions;
        queue_peak = max acc.queue_peak v.queue_peak;
      })
    { zero with shards = Some shards }
    vs

(* The STATS reply is a k=v one-liner ("queries=12 shed=0 ...").  A
   router parses each shard's line rather than any JSON, sums, and
   re-renders the identical shape. *)
let render_stats_text v =
  Printf.sprintf
    "queries=%d shed=%d expired=%d cache_hits=%d store_hits=%d sweeps=%d \
     evictions=%d queue_peak=%d"
    v.queries v.shed v.expired v.cache_hits v.store_hits v.sweeps v.evictions
    v.queue_peak

let parse_stats_text s =
  let kv = Hashtbl.create 8 in
  String.split_on_char ' ' s
  |> List.iter (fun field ->
         match String.index_opt field '=' with
         | None -> ()
         | Some i -> (
           let k = String.sub field 0 i in
           let v = String.sub field (i + 1) (String.length field - i - 1) in
           match int_of_string_opt v with
           | Some n -> Hashtbl.replace kv k n
           | None -> ()));
  let get k = Option.value (Hashtbl.find_opt kv k) ~default:0 in
  if Hashtbl.length kv = 0 then None
  else
    Some
      {
        zero with
        queries = get "queries";
        shed = get "shed";
        expired = get "expired";
        cache_hits = get "cache_hits";
        store_hits = get "store_hits";
        sweeps = get "sweeps";
        evictions = get "evictions";
        queue_peak = get "queue_peak";
      }

let render ~backend ~queue_max ~instances (v : volatile) =
  let rows =
    instances
    |> List.map (fun (id, status, detail) ->
           Printf.sprintf
             {|{"id": "%s", "status": "%s", "detail": "%s"}|}
             (Obs.Sink.json_escape id) (Obs.Sink.json_escape status)
             (Obs.Sink.json_escape detail))
    |> String.concat ", "
  in
  let hit_rate =
    if v.queries > 0 then float_of_int v.cache_hits /. float_of_int v.queries
    else 0.
  in
  String.concat "\n"
    ([
       "{";
       {|  "schema": "ephemeral-serve-ledger/v1",|};
       "  \"deterministic\": {";
       Printf.sprintf {|    "backend": "%s",|} (Obs.Sink.json_escape backend);
       Printf.sprintf {|    "queue_max": %d,|} queue_max;
       Printf.sprintf {|    "instances": [%s]|} rows;
       "  },";
       "  \"volatile\": {";
     ]
    @ (match v.shards with
      | Some k -> [ Printf.sprintf {|    "shards": %d,|} k ]
      | None -> [])
    @ [
        Printf.sprintf {|    "queries": %d,|} v.queries;
        Printf.sprintf {|    "shed": %d,|} v.shed;
        Printf.sprintf {|    "deadline_exceeded": %d,|} v.expired;
        Printf.sprintf {|    "cache_hits": %d,|} v.cache_hits;
        Printf.sprintf {|    "cache_hit_rate": %s,|} (json_float hit_rate);
        Printf.sprintf {|    "cache_evictions": %d,|} v.evictions;
        Printf.sprintf {|    "store_hits": %d,|} v.store_hits;
        Printf.sprintf {|    "sweeps": %d,|} v.sweeps;
        Printf.sprintf {|    "queue_peak": %d,|} v.queue_peak;
        Printf.sprintf {|    "latency_ms_p50": %s,|} (json_float v.p50_ms);
        Printf.sprintf {|    "latency_ms_p99": %s,|} (json_float v.p99_ms);
        Printf.sprintf {|    "qps": %s,|} (json_float v.qps);
        Printf.sprintf {|    "wall_s": %s|} (json_float v.wall_s);
        "  }";
        "}";
        "";
      ])
