type step = { from_time : int; until_time : int; arrival : int option }

let compute net ~source ~target =
  let n = Tgraph.n net in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Profile.compute: endpoint out of range";
  let lifetime = Tgraph.lifetime net in
  (* The arrival function only changes when t0 crosses a label value, so
     it suffices to evaluate at 1 and at l+1 for every distinct label l.
     (Evaluating at every t0 would give the same steps, slower.) *)
  let breakpoints = ref [ 1 ] in
  let seen = Hashtbl.create 64 in
  Tgraph.iter_time_edges net (fun ~src:_ ~dst:_ ~label ->
      if not (Hashtbl.mem seen label) then begin
        Hashtbl.add seen label ();
        if label + 1 <= lifetime + 1 then breakpoints := (label + 1) :: !breakpoints
      end);
  let breakpoints = List.sort_uniq compare !breakpoints in
  let value t0 =
    if source = target then Some 0
    else Foremost.distance (Foremost.run ~start_time:t0 net source) target
  in
  (* Build maximal constant runs over consecutive breakpoints. *)
  let rec build = function
    | [] -> []
    | t0 :: rest ->
      let arrival = value t0 in
      let rec extend last = function
        | t :: more when value t = arrival -> extend t more
        | remaining -> (last, remaining)
      in
      let last, remaining = extend t0 rest in
      let until_time =
        match remaining with
        | next :: _ -> next - 1
        | [] -> Stdlib.max last (lifetime + 1)
      in
      { from_time = t0; until_time; arrival } :: build remaining
  in
  build breakpoints

let arrival_at steps t0 =
  let rec search = function
    | [] -> raise Not_found
    | { from_time; until_time; arrival } :: rest ->
      if t0 < from_time then raise Not_found
      else if t0 <= until_time then arrival
      else if rest = [] then arrival (* beyond the last step: stays flat *)
      else search rest
  in
  search steps

let latest_useful_departure steps =
  List.fold_left
    (fun acc { until_time; arrival; _ } ->
      match arrival with Some _ -> Some until_time | None -> acc)
    None steps

let pp ppf steps =
  let pp_step ppf { from_time; until_time; arrival } =
    match arrival with
    | Some a -> Format.fprintf ppf "[%d..%d] -> %d" from_time until_time a
    | None -> Format.fprintf ppf "[%d..%d] -> never" from_time until_time
  in
  Format.fprintf ppf "@[<h>%a@]" (Fmt.list ~sep:(Fmt.any "; ") pp_step) steps
