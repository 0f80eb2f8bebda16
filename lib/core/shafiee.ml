open Workload

let order_with_duals inst =
  Approx_order.backward_order ~release_aware:true
    ~charge:Approx_order.Bottleneck_port inst

let order inst = fst (order_with_duals inst)

let guarantee ~with_releases = if with_releases then 5.0 else 4.0

let guarantee_for inst =
  guarantee
    ~with_releases:(Array.exists (fun r -> r > 0) (Instance.releases inst))

let policy inst = Policy.of_priority ~describe:"shafiee-ghaderi" (order inst)

let run inst = Engine.run inst (policy inst)
