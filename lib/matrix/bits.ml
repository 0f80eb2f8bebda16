(* One definition of each helper, in [Mat]'s unit (see there). *)
include Mat.Bits
