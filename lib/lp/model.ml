type var = int

type sense = Le | Ge | Eq

type term = float * var

type expr = term list

type row = {
  r_expr : expr;
  r_sense : sense;
  r_rhs : float;
  r_name : string option;
}

(* Rows live in a growable array ([nrows] live entries) so a row lookup is
   O(1).  Names are stored only when given: [var_names] stays empty until a
   variable is named, and the default names are rendered on demand. *)
type t = {
  m_name : string;
  mutable var_names : string option array;
  mutable nvars : int;
  mutable rows : row array;
  mutable nrows : int;
  mutable obj_dir : [ `Minimize | `Maximize ];
  mutable obj : expr;
  mutable obj_const : float;
}

let create ?(name = "lp") () =
  { m_name = name;
    var_names = [||];
    nvars = 0;
    rows = [||];
    nrows = 0;
    obj_dir = `Minimize;
    obj = [];
    obj_const = 0.0;
  }

let name m = m.m_name

let add_var ?name m =
  let id = m.nvars in
  (match name with
  | None -> ()
  | Some _ ->
    let cap = Array.length m.var_names in
    if id >= cap then begin
      let names = Array.make (max 8 (2 * (id + 1))) None in
      Array.blit m.var_names 0 names 0 cap;
      m.var_names <- names
    end;
    m.var_names.(id) <- name);
  m.nvars <- id + 1;
  id

let var_of_int m i =
  if i < 0 || i >= m.nvars then invalid_arg "Model.var_of_int: out of range";
  i

let var_name m v =
  if v < 0 || v >= m.nvars then invalid_arg "Model.var_name: out of range";
  match if v < Array.length m.var_names then m.var_names.(v) else None with
  | Some n -> n
  | None -> "x" ^ string_of_int v

let row_name m r =
  match m.rows.(r).r_name with Some n -> n | None -> "c" ^ string_of_int r

let num_vars m = m.nvars

let check_expr m e =
  List.iter
    (fun (c, v) ->
      if v < 0 || v >= m.nvars then
        invalid_arg "Model: expression references unknown variable";
      if Float.is_nan c || Float.abs c = infinity then
        invalid_arg "Model: non-finite coefficient")
    e

let check_finite what x =
  if not (Float.is_finite x) then invalid_arg ("Model: non-finite " ^ what)

let add_constraint ?name m e s b =
  check_expr m e;
  check_finite "right-hand side" b;
  let id = m.nrows in
  let row = { r_expr = e; r_sense = s; r_rhs = b; r_name = name } in
  let cap = Array.length m.rows in
  if id >= cap then begin
    let rows = Array.make (max 8 (2 * cap)) row in
    Array.blit m.rows 0 rows 0 cap;
    m.rows <- rows
  end;
  m.rows.(id) <- row;
  m.nrows <- id + 1;
  id

let num_constraints m = m.nrows

let constraint_row m i =
  if i < 0 || i >= m.nrows then
    invalid_arg "Model.constraint_row: out of range";
  let r = m.rows.(i) in
  (r.r_expr, r.r_sense, r.r_rhs)

let set_objective m dir constant e =
  check_expr m e;
  check_finite "objective constant" constant;
  m.obj_dir <- dir;
  m.obj <- e;
  m.obj_const <- constant

let minimize m ?(constant = 0.0) e = set_objective m `Minimize constant e

let maximize m ?(constant = 0.0) e = set_objective m `Maximize constant e

let objective m = (m.obj_dir, m.obj, m.obj_const)

let pp_expr m ppf e =
  if e = [] then Format.fprintf ppf "0"
  else
    List.iteri
      (fun k (c, v) ->
        if k > 0 then Format.fprintf ppf " + ";
        Format.fprintf ppf "%g %s" c (var_name m v))
      e

let pp ppf m =
  let dir = match m.obj_dir with `Minimize -> "min" | `Maximize -> "max" in
  Format.fprintf ppf "@[<v>%s: %a" dir (pp_expr m) m.obj;
  if m.obj_const <> 0.0 then Format.fprintf ppf " + %g" m.obj_const;
  for i = 0 to m.nrows - 1 do
    let r = m.rows.(i) in
    let s = match r.r_sense with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
    Format.fprintf ppf "@,%s: %a %s %g" (row_name m i) (pp_expr m) r.r_expr s
      r.r_rhs
  done;
  Format.fprintf ppf "@]"
