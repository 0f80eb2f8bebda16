open Switchsim

let order_with_duals ~net inst =
  Approx_order.backward_order ~release_aware:true
    ~speed:(float_of_int (Net.total_rate net))
    ~charge:Approx_order.Port_pair inst

let order ~net inst = fst (order_with_duals ~net inst)

let policy ~net inst =
  Policy.of_priority ~describe:"chen-hetero" (order ~net inst)
