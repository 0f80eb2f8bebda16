open Matrix

let load = Mat.load

let cumulative_loads ds =
  let n = Array.length ds in
  if n = 0 then [||]
  else begin
    let m = Mat.dim ds.(0) in
    let in_load = Array.make m 0 and out_load = Array.make m 0 in
    Array.map
      (fun d ->
        if Mat.dim d <> m then
          invalid_arg "Coflow.cumulative_loads: dimension mismatch";
        for p = 0 to m - 1 do
          in_load.(p) <- in_load.(p) + Mat.row_sum d p;
          out_load.(p) <- out_load.(p) + Mat.col_sum d p
        done;
        let best = ref 0 in
        for p = 0 to m - 1 do
          if in_load.(p) > !best then best := in_load.(p);
          if out_load.(p) > !best then best := out_load.(p)
        done;
        !best)
      ds
  end

let effective_bottleneck d ~weight =
  if weight <= 0.0 then
    invalid_arg "Coflow.effective_bottleneck: weight must be positive";
  float_of_int (load d) /. weight
