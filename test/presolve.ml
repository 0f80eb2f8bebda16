open Lp

type reduction = {
  original_vars : int;
  kept : int array; (* reduced index -> original index *)
  fixed : (int * float) list; (* original index, value *)
  rows_dropped : int;
  objective_shift : float; (* contribution of fixed vars, original sense *)
  maximize : bool;
}

type outcome =
  | Reduced of Model.t * reduction
  | Infeasible of string
  | Unbounded of string

let tol = 1e-12

(* Work on a mutable row representation. *)
type work_row = {
  mutable terms : (float * int) list; (* coeff, original var *)
  sense : Model.sense;
  mutable rhs : float;
  mutable live : bool;
}

let reduce model =
  let nvars = Model.num_vars model in
  let nrows = Model.num_constraints model in
  let rows =
    Array.init nrows (fun r ->
        let expr, sense, rhs = Model.constraint_row model r in
        (* merge duplicate terms *)
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (c, v) ->
            let v = (v : Model.var :> int) in
            let prev = try Hashtbl.find tbl v with Not_found -> 0.0 in
            Hashtbl.replace tbl v (prev +. c))
          expr;
        let terms =
          Hashtbl.fold (fun v c acc -> if Float.abs c > tol then (c, v) :: acc else acc) tbl []
        in
        { terms; sense; rhs; live = true })
  in
  let dir, obj_expr, obj_const = Model.objective model in
  let maximize = dir = `Maximize in
  let obj = Array.make nvars 0.0 in
  List.iter
    (fun (c, v) -> obj.((v : Model.var :> int)) <- obj.((v : Model.var :> int)) +. c)
    obj_expr;
  let fixed_value = Array.make nvars nan in
  let fixed = ref [] in
  let rows_dropped = ref 0 in
  let infeasible = ref None in
  let fix v value =
    if Float.is_nan fixed_value.(v) then begin
      if value < -1e-9 then
        infeasible :=
          Some (Printf.sprintf "variable %d forced to %g < 0" v value)
      else begin
        fixed_value.(v) <- value;
        fixed := (v, value) :: !fixed;
        (* substitute into every live row *)
        Array.iter
          (fun row ->
            if row.live then begin
              let coeff = ref 0.0 in
              row.terms <-
                List.filter
                  (fun (c, v') ->
                    if v' = v then begin
                      coeff := !coeff +. c;
                      false
                    end
                    else true)
                  row.terms;
              if !coeff <> 0.0 then row.rhs <- row.rhs -. (!coeff *. value)
            end)
          rows
      end
    end
    else if Float.abs (fixed_value.(v) -. value) > 1e-7 then
      infeasible :=
        Some
          (Printf.sprintf "variable %d fixed to both %g and %g" v
             fixed_value.(v) value)
  in
  (* fixed-point loop over the cheap reductions *)
  let changed = ref true in
  while !changed && !infeasible = None do
    changed := false;
    Array.iter
      (fun row ->
        if row.live && !infeasible = None then begin
          match row.terms with
          | [] ->
            let ok =
              match row.sense with
              | Model.Le -> row.rhs >= -1e-9
              | Model.Ge -> row.rhs <= 1e-9
              | Model.Eq -> Float.abs row.rhs <= 1e-9
            in
            if ok then begin
              row.live <- false;
              incr rows_dropped;
              changed := true
            end
            else
              infeasible :=
                Some
                  (Printf.sprintf "contradictory empty row (rhs %g)" row.rhs)
          | [ (a, v) ] when row.sense = Model.Eq ->
            fix v (row.rhs /. a);
            row.live <- false;
            incr rows_dropped;
            changed := true
          | _ -> ()
        end)
      rows
  done;
  match !infeasible with
  | Some msg -> Infeasible msg
  | None -> (
    (* drop exact duplicate rows *)
    let seen = Hashtbl.create 16 in
    Array.iter
      (fun row ->
        if row.live then begin
          let canon =
            ( List.sort compare row.terms,
              row.sense,
              Float.round (row.rhs *. 1e9) )
          in
          if Hashtbl.mem seen canon then begin
            row.live <- false;
            incr rows_dropped
          end
          else Hashtbl.add seen canon ()
        end)
      rows;
    (* detect free columns *)
    let appears = Array.make nvars false in
    Array.iter
      (fun row ->
        if row.live then
          List.iter (fun (_, v) -> appears.(v) <- true) row.terms)
      rows;
    let unbounded = ref None in
    for v = 0 to nvars - 1 do
      if Float.is_nan fixed_value.(v) && not appears.(v) then begin
        (* minimisation cost of v *)
        let cost = if maximize then -.obj.(v) else obj.(v) in
        if cost < -.tol then
          unbounded :=
            Some (Printf.sprintf "free variable %d with improving cost" v)
        else begin
          fixed_value.(v) <- 0.0;
          fixed := (v, 0.0) :: !fixed
        end
      end
    done;
    match !unbounded with
    | Some msg -> Unbounded msg
    | None ->
      (* build the reduced model *)
      let kept =
        Array.of_list
          (List.filter
             (fun v -> Float.is_nan fixed_value.(v))
             (List.init nvars (fun v -> v)))
      in
      let new_index = Array.make nvars (-1) in
      Array.iteri (fun idx v -> new_index.(v) <- idx) kept;
      let reduced = Model.create ~name:(Model.name model ^ "-presolved") () in
      let new_vars =
        Array.map (fun v -> Model.add_var ~name:(Model.var_name model (Model.var_of_int model v)) reduced) kept
      in
      ignore new_vars;
      Array.iter
        (fun row ->
          if row.live then begin
            let expr =
              List.map
                (fun (c, v) -> (c, Model.var_of_int reduced new_index.(v)))
                row.terms
            in
            ignore (Model.add_constraint reduced expr row.sense row.rhs)
          end)
        rows;
      let objective_shift =
        List.fold_left
          (fun acc (v, value) -> acc +. (obj.(v) *. value))
          0.0 !fixed
      in
      let reduced_obj =
        Array.to_list kept
        |> List.filter_map (fun v ->
               if Float.abs obj.(v) > tol then
                 Some (obj.(v), Model.var_of_int reduced new_index.(v))
               else None)
      in
      let constant = obj_const +. objective_shift in
      if maximize then Model.maximize reduced ~constant reduced_obj
      else Model.minimize reduced ~constant reduced_obj;
      Reduced
        ( reduced,
          { original_vars = nvars;
            kept;
            fixed = !fixed;
            rows_dropped = !rows_dropped;
            objective_shift;
            maximize;
          } ))

let restore red (sol : Solution.t) =
  let values = Array.make red.original_vars 0.0 in
  Array.iteri (fun idx v -> values.(v) <- sol.Solution.values.(idx)) red.kept;
  List.iter (fun (v, value) -> values.(v) <- value) red.fixed;
  (* Variable indices shift under reduction, so neither the duals nor the
     basis survive the round trip. *)
  { sol with Solution.values; duals = None; basis = None }

let stats red =
  Printf.sprintf "%d rows dropped, %d variables fixed, %d kept"
    red.rows_dropped (List.length red.fixed) (Array.length red.kept)

let solve model =
  match reduce model with
  | Infeasible _ ->
    { Solution.status = Solution.Infeasible;
      objective = nan;
      values = Array.make (Model.num_vars model) 0.0;
      iterations = 0;
      refactors = 0;
      duals = None;
      basis = None;
    }
  | Unbounded _ ->
    let _, _, _ = Model.objective model in
    let maximize = (let d, _, _ = Model.objective model in d) = `Maximize in
    { Solution.status = Solution.Unbounded;
      objective = (if maximize then infinity else neg_infinity);
      values = Array.make (Model.num_vars model) 0.0;
      iterations = 0;
      refactors = 0;
      duals = None;
      basis = None;
    }
  | Reduced (reduced, red) -> restore red (Revised_simplex.solve reduced)
