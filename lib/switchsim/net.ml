type fabric = { rate : int; rack_size : int option; core_capacity : int option }

type t = {
  ports : int;
  fabrics : fabric array;
  order : int array; (* fabric indices, fastest first, ties by index *)
}

let fabric ?rack_size ?core_capacity rate =
  if rate < 1 then invalid_arg "Net.fabric: rate must be >= 1";
  (match rack_size with
  | Some rs when rs < 1 -> invalid_arg "Net.fabric: rack_size must be >= 1"
  | _ -> ());
  (match core_capacity with
  | Some c when c < 0 -> invalid_arg "Net.fabric: negative core capacity"
  | Some _ when rack_size = None ->
    invalid_arg "Net.fabric: core_capacity requires rack_size"
  | _ -> ());
  { rate; rack_size; core_capacity }

let make ~ports fabrics =
  if ports <= 0 then invalid_arg "Net.make: ports must be positive";
  if fabrics = [] then invalid_arg "Net.make: at least one fabric";
  let fabrics = Array.of_list fabrics in
  Array.iter
    (fun f ->
      match f.rack_size with
      | Some rs when rs > ports ->
        invalid_arg "Net.make: rack_size exceeds ports"
      | _ -> ())
    fabrics;
  let order = Array.init (Array.length fabrics) (fun i -> i) in
  (* fastest first; stable on ties, so equal-rate fabrics keep index order *)
  let arr = Array.map (fun i -> (-fabrics.(i).rate, i)) order in
  Array.sort compare arr;
  { ports; fabrics; order = Array.map snd arr }

let single ~ports = make ~ports [ fabric 1 ]

let two_tier ~ports ~rack_size ~core_capacity =
  make ~ports [ fabric ~rack_size ~core_capacity 1 ]

let uniform ~ports ~rates = make ~ports (List.map fabric rates)

let ports t = t.ports

let k t = Array.length t.fabrics

let fabric_of t f =
  if f < 0 || f >= Array.length t.fabrics then
    invalid_arg "Net.fabric_of: fabric index out of range";
  t.fabrics.(f)

let rate t f = (fabric_of t f).rate

let total_rate t = Array.fold_left (fun acc f -> acc + f.rate) 0 t.fabrics

let by_rate t = Array.copy t.order

let rack_of t ~fabric p =
  let fb = fabric_of t fabric in
  if p < 0 || p >= t.ports then invalid_arg "Net.rack_of: port out of range";
  match fb.rack_size with None -> 0 | Some rs -> p / rs

let crosses_core t ~fabric ~src ~dst =
  match (fabric_of t fabric).rack_size with
  | None -> false
  | Some _ -> rack_of t ~fabric src <> rack_of t ~fabric dst

let core_capacity t f = (fabric_of t f).core_capacity

