let components g =
  let n = Graph.n g in
  let uf = Unionfind.create n in
  Graph.iter_edges g (fun _ u v -> ignore (Unionfind.union uf u v));
  let label = Array.make n (-1) in
  let next = ref 0 in
  let comp = Array.make n (-1) in
  for v = 0 to n - 1 do
    let root = Unionfind.find uf v in
    if label.(root) = -1 then begin
      label.(root) <- !next;
      incr next
    end;
    comp.(v) <- label.(root)
  done;
  comp

let component_count g =
  let comp = components g in
  Array.fold_left Stdlib.max (-1) comp + 1

let is_connected g = Graph.n g <= 1 || component_count g = 1

(* Tarjan's SCC, iterative to survive deep graphs. *)
let strongly_connected_components g =
  let n = Graph.n g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 and next_comp = ref 0 in
  let visit root =
    (* Explicit call stack of (vertex, next-neighbour-position). *)
    let calls = Stack.create () in
    Stack.push (root, 0) calls;
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    Stack.push root stack;
    on_stack.(root) <- true;
    while not (Stack.is_empty calls) do
      let v, pos = Stack.pop calls in
      let neighbors = Graph.out_neighbors g v in
      if pos < Array.length neighbors then begin
        let w = neighbors.(pos) in
        Stack.push (v, pos + 1) calls;
        if index.(w) = -1 then begin
          index.(w) <- !next_index;
          lowlink.(w) <- !next_index;
          incr next_index;
          Stack.push w stack;
          on_stack.(w) <- true;
          Stack.push (w, 0) calls
        end
        else if on_stack.(w) then
          lowlink.(v) <- Stdlib.min lowlink.(v) index.(w)
      end
      else begin
        if lowlink.(v) = index.(v) then begin
          let continue = ref true in
          while !continue do
            let w = Stack.pop stack in
            on_stack.(w) <- false;
            comp.(w) <- !next_comp;
            if w = v then continue := false
          done;
          incr next_comp
        end;
        if not (Stack.is_empty calls) then begin
          let parent, _ = Stack.top calls in
          lowlink.(parent) <- Stdlib.min lowlink.(parent) lowlink.(v)
        end
      end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  comp
