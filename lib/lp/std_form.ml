type sense = Le | Ge | Eq

type t = {
  nrows : int;
  ncols : int;
  col_rows : int array array;
  col_vals : float array array;
  obj : float array;
  obj_const : float;
  rhs : float array;
  senses : sense array;
  maximize : bool;
}

(* Linear in the model's size.  Each row's duplicate terms merge through a
   per-variable row mark: the first term of [v] in row [r] starts the sum at
   [0.0 +. c] and later ones add in term order.  Pass 1 counts each column's
   surviving (non-zero) entries; pass 2 merges again and writes them.  Rows
   are visited in ascending order, so every column comes out sorted by row
   without a sort. *)
let of_model m =
  let ncols = Model.num_vars m in
  let nrows = Model.num_constraints m in
  let rhs = Array.make nrows 0.0 in
  let senses = Array.make nrows Eq in
  let mark = Array.make ncols (-1) in
  let sum = Array.make ncols 0.0 in
  let touched = Array.make ncols 0 in
  (* Merge row [r]'s terms into [sum]; returns how many distinct variables
     it touched, listed in [touched]. *)
  let merge r expr =
    let nt = ref 0 in
    List.iter
      (fun (c, v) ->
        let v = (v : Model.var :> int) in
        if mark.(v) <> r then begin
          mark.(v) <- r;
          sum.(v) <- 0.0 +. c;
          touched.(!nt) <- v;
          incr nt
        end
        else sum.(v) <- sum.(v) +. c)
      expr;
    !nt
  in
  let count = Array.make ncols 0 in
  for r = 0 to nrows - 1 do
    let expr, s, b = Model.constraint_row m r in
    rhs.(r) <- b;
    senses.(r) <-
      (match s with Model.Le -> Le | Model.Ge -> Ge | Model.Eq -> Eq);
    for i = 0 to merge r expr - 1 do
      let v = touched.(i) in
      if sum.(v) <> 0.0 then count.(v) <- count.(v) + 1
    done
  done;
  let col_rows = Array.map (fun n -> Array.make n 0) count in
  let col_vals = Array.map (fun n -> Array.make n 0.0) count in
  Array.fill count 0 ncols 0;
  Array.fill mark 0 ncols (-1);
  for r = 0 to nrows - 1 do
    let expr, _, _ = Model.constraint_row m r in
    for i = 0 to merge r expr - 1 do
      let v = touched.(i) in
      let c = sum.(v) in
      if c <> 0.0 then begin
        let k = count.(v) in
        col_rows.(v).(k) <- r;
        col_vals.(v).(k) <- c;
        count.(v) <- k + 1
      end
    done
  done;
  let dir, obj_expr, obj_const = Model.objective m in
  let maximize = dir = `Maximize in
  let obj = Array.make ncols 0.0 in
  List.iter
    (fun (c, v) ->
      let v = (v : Model.var :> int) in
      obj.(v) <- obj.(v) +. (if maximize then -.c else c))
    obj_expr;
  let obj_const = if maximize then -.obj_const else obj_const in
  { nrows; ncols; col_rows; col_vals; obj; obj_const; rhs; senses; maximize }

let objective_value std x =
  let acc = ref std.obj_const in
  for v = 0 to std.ncols - 1 do
    acc := !acc +. (std.obj.(v) *. x.(v))
  done;
  if std.maximize then -. !acc else !acc
