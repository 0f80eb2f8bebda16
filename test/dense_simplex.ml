(* Two-phase full-tableau simplex with Bland's rule.

   Column layout: [0 .. ncols-1] structural variables, then one slack or
   surplus column per inequality row, then one artificial column per row that
   needs it.  Rows are normalised so that every right-hand side is
   non-negative before the artificial columns are chosen. *)

open Lp

let feas_tol = 1e-9

let solve ?(max_iterations = 100_000) model =
  let std = Std_form.of_model model in
  let nrows = std.Std_form.nrows and ncols = std.Std_form.ncols in
  (* Dense copy of A with rows normalised to rhs >= 0. *)
  let a = Array.make_matrix nrows ncols 0.0 in
  for v = 0 to ncols - 1 do
    let rows = std.Std_form.col_rows.(v) and vals = std.Std_form.col_vals.(v) in
    for k = 0 to Array.length rows - 1 do
      a.(rows.(k)).(v) <- vals.(k)
    done
  done;
  let rhs = Array.copy std.Std_form.rhs in
  let senses = Array.copy std.Std_form.senses in
  for r = 0 to nrows - 1 do
    if rhs.(r) < 0.0 then begin
      rhs.(r) <- -.rhs.(r);
      for v = 0 to ncols - 1 do
        a.(r).(v) <- -.a.(r).(v)
      done;
      senses.(r) <-
        (match senses.(r) with
        | Std_form.Le -> Std_form.Ge
        | Std_form.Ge -> Std_form.Le
        | Std_form.Eq -> Std_form.Eq)
    end
  done;
  (* Assign slack/surplus columns, then artificials. *)
  let slack_of = Array.make nrows (-1) in
  let next = ref ncols in
  for r = 0 to nrows - 1 do
    match senses.(r) with
    | Std_form.Le | Std_form.Ge ->
      slack_of.(r) <- !next;
      incr next
    | Std_form.Eq -> ()
  done;
  let art_of = Array.make nrows (-1) in
  let first_art = !next in
  for r = 0 to nrows - 1 do
    let needs_artificial =
      match senses.(r) with
      | Std_form.Le -> false (* +1 slack is a valid basic column *)
      | Std_form.Ge | Std_form.Eq -> true
    in
    if needs_artificial then begin
      art_of.(r) <- !next;
      incr next
    end
  done;
  let total = !next in
  (* tableau.(r) has [total] coefficient entries plus the rhs at index
     [total]. *)
  let tab = Array.make_matrix nrows (total + 1) 0.0 in
  for r = 0 to nrows - 1 do
    Array.blit a.(r) 0 tab.(r) 0 ncols;
    if slack_of.(r) >= 0 then
      tab.(r).(slack_of.(r)) <-
        (match senses.(r) with
        | Std_form.Le -> 1.0
        | Std_form.Ge -> -1.0
        | Std_form.Eq -> assert false);
    if art_of.(r) >= 0 then tab.(r).(art_of.(r)) <- 1.0;
    tab.(r).(total) <- rhs.(r)
  done;
  let basis =
    Array.init nrows (fun r ->
        if art_of.(r) >= 0 then art_of.(r) else slack_of.(r))
  in
  let iterations = ref 0 in
  let pivot r c =
    let piv = tab.(r).(c) in
    let row = tab.(r) in
    for k = 0 to total do
      row.(k) <- row.(k) /. piv
    done;
    for r' = 0 to nrows - 1 do
      if r' <> r then begin
        let f = tab.(r').(c) in
        if f <> 0.0 then begin
          let row' = tab.(r') in
          for k = 0 to total do
            row'.(k) <- row'.(k) -. (f *. row.(k))
          done;
          row'.(c) <- 0.0
        end
      end
    done;
    basis.(r) <- c
  in
  (* Reduced costs for cost vector [c] (length [total]) under the current
     basis, computed from scratch — O(rows * cols), fine at this scale. *)
  let reduced_costs c =
    let y = Array.make nrows 0.0 in
    (* Because the tableau is kept in canonical form, the basic columns are
       unit vectors; the multipliers are just the basic costs. *)
    for r = 0 to nrows - 1 do
      y.(r) <- c.(basis.(r))
    done;
    let rc = Array.make total 0.0 in
    for v = 0 to total - 1 do
      let acc = ref c.(v) in
      for r = 0 to nrows - 1 do
        if y.(r) <> 0.0 then acc := !acc -. (y.(r) *. tab.(r).(v))
      done;
      rc.(v) <- !acc
    done;
    rc
  in
  (* One phase of Bland-rule simplex over the columns allowed by [allowed].
     Returns [`Optimal], [`Unbounded] or [`Limit]. *)
  let run_phase cost allowed =
    let rec loop () =
      if !iterations >= max_iterations then `Limit
      else begin
        let rc = reduced_costs cost in
        let entering = ref (-1) in
        (for v = 0 to total - 1 do
           if !entering = -1 && allowed v && rc.(v) < -.feas_tol then
             entering := v
         done);
        if !entering = -1 then `Optimal
        else begin
          let c = !entering in
          (* Bland leaving rule: among rows attaining the minimum ratio,
             choose the one whose basic variable has the smallest index. *)
          let best_ratio = ref infinity and leave = ref (-1) in
          for r = 0 to nrows - 1 do
            let coeff = tab.(r).(c) in
            if coeff > feas_tol then begin
              let ratio = tab.(r).(total) /. coeff in
              if
                ratio < !best_ratio -. feas_tol
                || (ratio < !best_ratio +. feas_tol
                   && (!leave = -1 || basis.(r) < basis.(!leave)))
              then begin
                best_ratio := ratio;
                leave := r
              end
            end
          done;
          if !leave = -1 then `Unbounded
          else begin
            incr iterations;
            pivot !leave c;
            loop ()
          end
        end
      end
    in
    loop ()
  in
  let finish status =
    let values = Array.make ncols 0.0 in
    for r = 0 to nrows - 1 do
      if basis.(r) < ncols then values.(basis.(r)) <- tab.(r).(total)
    done;
    let objective = Std_form.objective_value std values in
    { Solution.status; objective; values; iterations = !iterations;
      refactors = 0; duals = None; basis = None }
  in
  (* Phase 1: minimise the sum of artificials, if any exist. *)
  let phase1_needed = first_art < total in
  let phase1_result =
    if not phase1_needed then `Optimal
    else begin
      let cost = Array.make total 0.0 in
      for v = first_art to total - 1 do
        cost.(v) <- 1.0
      done;
      run_phase cost (fun _ -> true)
    end
  in
  match phase1_result with
  | `Limit -> finish Solution.Iteration_limit
  | `Unbounded ->
    (* Phase 1 is bounded below by 0; this cannot happen. *)
    assert false
  | `Optimal ->
    let artificial_level =
      let acc = ref 0.0 in
      for r = 0 to nrows - 1 do
        if basis.(r) >= first_art then acc := !acc +. tab.(r).(total)
      done;
      !acc
    in
    if phase1_needed && artificial_level > 1e-7 then
      { Solution.status = Solution.Infeasible;
        objective = nan;
        values = Array.make ncols 0.0;
        iterations = !iterations;
        refactors = 0;
        duals = None;
        basis = None;
      }
    else begin
      (* Drive zero-level artificials out of the basis where possible. *)
      for r = 0 to nrows - 1 do
        if basis.(r) >= first_art then begin
          let c = ref (-1) in
          for v = 0 to first_art - 1 do
            if !c = -1 && Float.abs tab.(r).(v) > 1e-7 then c := v
          done;
          if !c >= 0 then pivot r !c
          (* otherwise the row is redundant; the artificial stays basic at
             level zero and is never allowed to re-enter with positive
             value because phase 2 forbids artificial columns. *)
        end
      done;
      let cost = Array.make total 0.0 in
      Array.blit std.Std_form.obj 0 cost 0 ncols;
      let allowed v = v < first_art in
      match run_phase cost allowed with
      | `Optimal -> finish Solution.Optimal
      | `Unbounded ->
        { Solution.status = Solution.Unbounded;
          objective = (if std.Std_form.maximize then infinity else neg_infinity);
          values = Array.make ncols 0.0;
          iterations = !iterations;
          refactors = 0;
          duals = None;
          basis = None;
        }
      | `Limit -> finish Solution.Iteration_limit
    end
