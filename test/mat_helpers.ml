open Matrix

let leq a b =
  if Mat.dim a <> Mat.dim b then
    invalid_arg "Mat_helpers.leq: dimension mismatch";
  let ok = ref true in
  Mat.iter_nonzero (fun i j v -> if v > Mat.get b i j then ok := false) a;
  !ok

let to_string d = Format.asprintf "%a" Mat.pp d
