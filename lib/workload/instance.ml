open Matrix

type coflow = { id : int; release : int; demand : Mat.t; weight : float }

type t = { ports : int; coflows : coflow array }

(* The running [total_units] and latest release: [horizon] adds them, so
   both must stay within [max_int].  A top-level fold, so the check
   allocates nothing (the service builds an instance every epoch). *)
let rec check_totals units last = function
  | [] -> ()
  | c :: rest ->
    let total = Mat.total c.demand and last = max last c.release in
    if total > max_int - units || last > max_int - units - total then
      invalid_arg
        (Printf.sprintf
           "Instance.make: coflow %d pushes the total units, or the latest \
            release plus them, past max_int"
           c.id);
    check_totals (units + total) last rest

let make ~ports cs =
  if ports <= 0 then invalid_arg "Instance.make: ports must be positive";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Mat.dim c.demand <> ports then
        invalid_arg "Instance.make: demand dimension mismatch";
      if c.weight <= 0.0 || Float.is_nan c.weight then
        invalid_arg "Instance.make: weights must be positive";
      if c.release < 0 then invalid_arg "Instance.make: negative release date";
      if Hashtbl.mem seen c.id then
        invalid_arg "Instance.make: duplicate coflow id";
      Hashtbl.add seen c.id ())
    cs;
  check_totals 0 0 cs;
  { ports; coflows = Array.of_list cs }

let ports t = t.ports

let num_coflows t = Array.length t.coflows

let coflow t k =
  if k < 0 || k >= num_coflows t then
    invalid_arg "Instance.coflow: index out of range";
  t.coflows.(k)

let coflows t = Array.copy t.coflows

let filter_m0 t threshold =
  { t with
    coflows =
      Array.of_list
        (List.filter
           (fun c -> Mat.nonzero_count c.demand >= threshold)
           (Array.to_list t.coflows));
  }

let with_weights t w =
  if Array.length w < num_coflows t then
    invalid_arg "Instance.with_weights: weight vector too short";
  { t with
    coflows = Array.mapi (fun k c -> { c with weight = w.(k) }) t.coflows;
  }

let with_zero_releases t =
  { t with coflows = Array.map (fun c -> { c with release = 0 }) t.coflows }

let weights t = Array.map (fun c -> c.weight) t.coflows

let releases t = Array.map (fun c -> c.release) t.coflows

let demands t =
  Array.to_list (Array.map (fun c -> (c.release, c.demand)) t.coflows)

let total_units t =
  Array.fold_left (fun acc c -> acc + Mat.total c.demand) 0 t.coflows

let horizon t =
  let max_release =
    Array.fold_left (fun acc c -> max acc c.release) 0 t.coflows
  in
  max_release + total_units t

let pp_summary ppf t =
  let n = num_coflows t in
  let units = total_units t in
  let widths =
    Array.map (fun c -> Mat.nonzero_count c.demand) t.coflows
  in
  let max_width = Array.fold_left max 0 widths in
  Format.fprintf ppf
    "%d ports, %d coflows, %d data units, widest coflow %d flows" t.ports n
    units max_width
