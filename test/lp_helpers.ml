open Lp

let add_vars m n = Array.init n (fun _ -> Model.add_var m)

let residuals std x =
  let res = Array.map (fun b -> -.b) std.Std_form.rhs in
  for v = 0 to std.Std_form.ncols - 1 do
    let xv = x.(v) in
    if xv <> 0.0 then begin
      let rows = std.Std_form.col_rows.(v)
      and vals = std.Std_form.col_vals.(v) in
      for k = 0 to Array.length rows - 1 do
        res.(rows.(k)) <- res.(rows.(k)) +. (vals.(k) *. xv)
      done
    end
  done;
  res

let check_oracle label formulation inst r =
  let o =
    match Core.Lp_relax.relaxation formulation inst with
    | None -> Alcotest.fail (label ^ ": the instance needs no LP")
    | Some { Core.Lp_relax.model; decode } ->
      decode (Dense_simplex.solve model)
  in
  let bound = o.Core.Lp_relax.lower_bound in
  Alcotest.(check bool)
    (Printf.sprintf "%s: same bound (%g vs %g)" label bound
       r.Core.Lp_relax.lower_bound)
    true
    (Float.abs (bound -. r.Core.Lp_relax.lower_bound)
    <= 1e-6 *. (1.0 +. Float.abs bound));
  Alcotest.(check (array int))
    (label ^ ": same ordering") o.Core.Lp_relax.order r.Core.Lp_relax.order
