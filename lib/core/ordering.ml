open Workload

type t = int array

let is_permutation n order =
  Array.length order = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun k ->
      if k < 0 || k >= n || seen.(k) then false
      else begin
        seen.(k) <- true;
        true
      end)
    order

let sort_by inst key =
  let n = Instance.num_coflows inst in
  let idx = Array.init n (fun k -> k) in
  Array.sort
    (fun a b ->
      match compare (key a) (key b) with 0 -> compare a b | c -> c)
    idx;
  idx

let arrival inst = sort_by inst (fun k -> (Instance.coflow inst k).Instance.id)

let by_load_over_weight inst =
  sort_by inst (fun k ->
      let c = Instance.coflow inst k in
      ( Coflow.effective_bottleneck c.Instance.demand ~weight:c.Instance.weight,
        c.Instance.release,
        c.Instance.id ))

let by_total_size inst =
  sort_by inst (fun k ->
      let c = Instance.coflow inst k in
      ( float_of_int (Matrix.Mat.total c.Instance.demand) /. c.Instance.weight,
        c.Instance.release,
        c.Instance.id ))

let by_lp (result : Lp_relax.result) = Array.copy result.Lp_relax.order
