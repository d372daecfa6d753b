type step = { src : int; dst : int; label : int }
type t = step list


let rec last = function
  | [] -> None
  | [ s ] -> Some s
  | _ :: rest -> last rest

let target t = Option.map (fun s -> s.dst) (last t)
let arrival t = Option.map (fun s -> s.label) (last t)
let departure = function [] -> None | s :: _ -> Some s.label
let length = List.length

let vertices = function
  | [] -> []
  | first :: _ as steps -> first.src :: List.map (fun s -> s.dst) steps

let strictly_increasing t =
  let rec check = function
    | a :: (b :: _ as rest) -> a.label < b.label && check rest
    | _ -> true
  in
  check t

let connected t =
  let rec check = function
    | a :: (b :: _ as rest) -> a.dst = b.src && check rest
    | _ -> true
  in
  check t

let valid_in net t =
  strictly_increasing t && connected t
  && List.for_all
       (fun s -> Tgraph.can_cross_at net ~src:s.src ~dst:s.dst s.label)
       t

let is_journey net ~source:s ~target:v t =
  match t with
  | [] -> s = v
  | first :: _ ->
    first.src = s
    && (match target t with Some dst -> dst = v | None -> false)
    && valid_in net t

let pp ppf t =
  let pp_step ppf s = Format.fprintf ppf "%d -[%d]-> %d" s.src s.label s.dst in
  Format.fprintf ppf "@[<h>%a@]" (Fmt.list ~sep:(Fmt.any "; ") pp_step) t
