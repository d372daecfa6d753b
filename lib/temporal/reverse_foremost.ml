type result = {
  target : int;
  latest : int array;  (* L(v); -1 = unreachable *)
  succ : int array;  (* stream index of the edge realising L(v), or -1 *)
}

let run ?deadline net t =
  let deadline = Option.value deadline ~default:(Tgraph.lifetime net) in
  if deadline <= 0 then
    invalid_arg "Reverse_foremost.run: deadline must be positive";
  let n = Tgraph.n net in
  if t < 0 || t >= n then invalid_arg "Reverse_foremost.run: target out of range";
  let latest = Array.make n (-1) in
  let succ = Array.make n (-1) in
  latest.(t) <- deadline;
  (* Decreasing label order: when edge (u,v,l) is processed, every edge
     with a larger label — the only ones a journey may use after l — has
     already contributed to latest.(v). *)
  let { Implicit.Stream.arcs; off; bound; _ } = Tgraph.stream net in
  let shift = Implicit.Stream.arc_shift and mask = Implicit.Stream.arc_mask in
  for l = Stdlib.min deadline bound downto 1 do
    for i = off.(l + 1) - 1 downto off.(l) do
      let a = arcs.(i) in
      let u = a lsr shift and v = a land mask in
      if l <= latest.(v) && l - 1 > latest.(u) then begin
        latest.(u) <- l - 1;
        succ.(u) <- i
      end
    done
  done;
  { target = t; latest; succ }

let latest_presence r v = if r.latest.(v) < 0 then None else Some r.latest.(v)

let latest_departure r v =
  if v = r.target || r.latest.(v) < 0 then None else Some (r.latest.(v) + 1)

let reachable_count r =
  Array.fold_left (fun acc x -> if x >= 0 then acc + 1 else acc) 0 r.latest

let journey_from net r v =
  if v = r.target then Some []
  else if r.latest.(v) < 0 then None
  else begin
    let rec walk v acc =
      if v = r.target then List.rev acc
      else
        let src, dst, label = Tgraph.time_edge net r.succ.(v) in
        walk dst ({ Journey.src; dst; label } :: acc)
    in
    Some (walk v [])
  end
