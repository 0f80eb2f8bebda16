open Matrix
open Workload

(* Warm-start hints describe the final basis of a solve in model-independent
   terms — coflow indices and completion times rather than column/row
   numbers — so they survive regridding (different [base]), reweighting, and
   residual re-plans. *)
type warm_hints = {
  h_basics : (int * float) list; (* basic x[k][l], as (k, tau_l) *)
  h_slacks : (bool * int * float) list;
      (* basic load-row slack, as (is_input, port, tau_l) *)
}

type result = {
  cbar : float array;
  order : int array;
  lower_bound : float;
  iterations : int;
  refactors : int;
  values : (int * int * float) list;
  warm : warm_hints option;
}

exception Too_large of string

(* The grid tau_1 = 1 < ... < tau_L: each point is the ceiling of the
   next power of [base] and at least one past the previous point, and the
   grid ends at the first point >= [t].  It is walked twice, to count and
   then to fill, so the power stays an unboxed float and no point
   allocates: the LP is re-solved every epoch of the service. *)
let grid ~base t =
  let walk visit =
    let point = ref 1 and raw = ref 1.0 and l = ref 0 in
    visit 0 1;
    while !point < t do
      raw := !raw *. base;
      (* the epsilon keeps near-integer powers (e.g. (sqrt 2)^2k) from
         rounding up, so grids of nested bases stay set-nested; a power
         past [max_int] has no int, and ends the grid there *)
      let next =
        if !raw >= Float.of_int max_int then max_int
        else int_of_float (Float.ceil (!raw -. 1e-9))
      in
      point := if next <= !point then !point + 1 else next;
      incr l;
      visit !l !point
    done;
    !l + 1
  in
  let taus = Array.make (walk (fun _ _ -> ())) 0 in
  let (_ : int) = walk (Array.set taus) in
  taus

(* base 2: smallest L with 2^(L-1) >= t *)
let interval_count inst =
  Array.length (grid ~base:2.0 (max 1 (Instance.horizon inst)))

(* Sort working indices by cbar, breaking ties by index so the order is
   deterministic (the paper's order (15) is any nondecreasing order).  The
   comparison quantizes at 1e-6 so coflows whose completion times agree up
   to solver round-off keep index order.  Two optimal vertices of one LP
   can still differ in cbar, and so in order. *)
let order_of_cbar cbar =
  let q c = Float.round (c *. 1e6) /. 1e6 in
  let idx = Array.init (Array.length cbar) (fun k -> k) in
  Array.sort
    (fun a b ->
      match Float.compare (q cbar.(a)) (q cbar.(b)) with
      | 0 -> compare a b
      | c -> c)
    idx;
  idx

let remap_hints ?(index_map = fun k -> Some k) ?(time_shift = 0.0) h =
  { h_basics =
      List.filter_map
        (fun (k, t) ->
          match index_map k with
          | Some k' -> Some (k', t -. time_shift)
          | None -> None)
        h.h_basics;
    h_slacks =
      List.filter_map
        (fun (side, p, t) ->
          let t' = t -. time_shift in
          if t' <= 0.0 then None else Some (side, p, t'))
        h.h_slacks;
  }

let trivial_result n =
  { cbar = Array.make n 0.0;
    order = Array.init n (fun k -> k);
    lower_bound = 0.0;
    iterations = 0;
    refactors = 0;
    values = [];
    warm = None;
  }

type formulation = Interval of float | Time_indexed

type relaxation = {
  model : Lp.Model.t;
  decode : Lp.Solution.t -> result;
}

(* A built relaxation: the model and its decoder, and the start bases its
   solve tries in turn: the exact image of the warm hints, then the greedy
   placement, forced only if the first is rejected. *)
type built = {
  relaxation : relaxation;
  warm_basis : Lp.Revised_simplex.warm_basis option;
  crash_basis : Lp.Revised_simplex.warm_basis Lazy.t;
}

(* What an instance needs: no LP at all (the result is known), or one. *)
type prepared = Solved of result | Built of built

(* Row identities, recorded as the model is built, so the solver's final
   basis can be translated to [warm_hints] and back. *)
type row_id = Load of bool * int * int (* is_input, port, l *) | Assign of int

(* Shared builder for both relaxations.

   [taus] are the right endpoints tau_1 < ... < tau_L (tau_0 = 0 implicit);
   [obj_at] selects the objective coefficient of the variable "coflow k
   completes at grid point l": the interval LP uses the left endpoint
   tau_(l-1), LP-EXP the right endpoint tau_l. *)
let build_on_grid ?warm_start ~taus ~obj_at inst =
  let n = Instance.num_coflows inst in
  let m = Instance.ports inst in
  let coflows = Instance.coflows inst in
  let big_l = Array.length taus in
  let tau l = taus.(l - 1) in
  (* per-coflow port loads and the earliest grid index at which the coflow
     can possibly complete (constraint (13)) *)
  let row_load = Array.map (fun c -> Mat.row_sums c.Instance.demand) coflows in
  let col_load = Array.map (fun c -> Mat.col_sums c.Instance.demand) coflows in
  let first_l =
    Array.map
      (fun c ->
        let bound = c.Instance.release + Mat.load c.Instance.demand in
        let rec find l =
          if l > big_l then
            invalid_arg "Lp_relax: grid too short for some coflow"
          else if tau l >= bound then l
          else find (l + 1)
        in
        find 1)
      coflows
  in
  let model = Lp.Model.create ~name:"coflow-relaxation" () in
  (* variables x[k][l], l in [first_l.(k) .. L]; [var_meta] maps the raw
     column index back to (k, l) for basis export *)
  let nvars = Array.fold_left (fun acc f -> acc + big_l - f + 1) 0 first_l in
  let var_meta = Array.make nvars (0, 0) in
  let vars =
    Array.init n (fun k ->
        Array.init
          (big_l - first_l.(k) + 1)
          (fun off ->
            let v = Lp.Model.add_var model in
            var_meta.((v :> int)) <- (k, first_l.(k) + off);
            v))
  in
  let var k l =
    if l < first_l.(k) then None else Some vars.(k).(l - first_l.(k))
  in
  (* load rows: for side `In i` / `Out j` and grid point l, the cumulative
     work of coflows allowed to finish by l must fit in tau_l.  Rows where
     the full side load already fits are omitted (always satisfied).  The
     cumulative expression is extended from grid point l-1 to l rather than
     rebuilt per row, so construction is O(m*L*n) instead of O(m*L^2*n). *)
  let row_ids = ref [] in
  let nrows = ref 0 in
  let add_load_rows side_load is_input =
    for p = 0 to m - 1 do
      let total = ref 0 in
      for k = 0 to n - 1 do
        total := !total + side_load.(k).(p)
      done;
      (* taus increase, so the rows stop at the first grid point whose tau
         fits the whole side load *)
      let expr = ref [] in
      let l = ref 1 in
      while !l <= big_l && tau !l < !total do
        let l' = !l in
        (* terms new at l: each eligible coflow's x[k][l] *)
        for k = 0 to n - 1 do
          if first_l.(k) <= l' then begin
            let w = side_load.(k).(p) in
            if w > 0 then
              expr := (float_of_int w, vars.(k).(l' - first_l.(k))) :: !expr
          end
        done;
        (match !expr with
        | [] -> ()
        | e ->
          ignore
            (Lp.Model.add_constraint model e Lp.Model.Le
               (float_of_int (tau l')));
          row_ids := Load (is_input, p, l') :: !row_ids;
          incr nrows);
        incr l
      done
    done
  in
  add_load_rows row_load true;
  add_load_rows col_load false;
  (* assignment rows: sum_l x[k][l] = 1; crash basis puts x[k][L] basic *)
  let assign_row = Array.make n (-1) in
  for k = 0 to n - 1 do
    let expr = Array.to_list (Array.map (fun v -> (1.0, v)) vars.(k)) in
    ignore (Lp.Model.add_constraint model expr Lp.Model.Eq 1.0);
    assign_row.(k) <- !nrows;
    row_ids := Assign k :: !row_ids;
    incr nrows
  done;
  let row_ids =
    let a = Array.make !nrows (Assign (-1)) in
    List.iteri (fun i id -> a.(!nrows - 1 - i) <- id) !row_ids;
    a
  in
  let obj_coeff l =
    match obj_at with
    | `Left -> if l = 1 then 0.0 else float_of_int (tau (l - 1))
    | `Right -> float_of_int (tau l)
  in
  let objective = ref [] in
  for k = 0 to n - 1 do
    let w = coflows.(k).Instance.weight in
    for l = first_l.(k) to big_l do
      match var k l with
      | Some v -> objective := (w *. obj_coeff l, v) :: !objective
      | None -> ()
    done
  done;
  Lp.Model.minimize model !objective;
  let l_of_time t =
    let rec find l =
      if l >= big_l then big_l
      else if float_of_int (tau l) >= t -. 1e-9 then l
      else find (l + 1)
    in
    find 1
  in
  (* Load rows are looked up by (side, port, l) in flat arrays indexed by
     [load_slot]. *)
  let load_slot side p l = (((if side then p else m + p) * big_l) + l - 1) in
  (* Translate time-based warm hints back into a concrete basis proposal on
     this grid.  Best effort: the solver validates the proposal and falls
     back to the crash proposal if it is singular or infeasible. *)
  let basis_of_hints h =
    let wb = Array.make !nrows min_int in
    let used = Array.make nvars false in
    let extras = ref [] in
    List.iter
      (fun (k, t) ->
        if k >= 0 && k < n then begin
          let l = max first_l.(k) (l_of_time t) in
          let v = (vars.(k).(l - first_l.(k)) :> int) in
          if not used.(v) then begin
            used.(v) <- true;
            if wb.(assign_row.(k)) = min_int then wb.(assign_row.(k)) <- v
            else extras := v :: !extras
          end
        end)
      h.h_basics;
    let slack = Array.make (2 * m * big_l) false in
    List.iter
      (fun (side, p, t) ->
        if p >= 0 && p < m then slack.(load_slot side p (l_of_time t)) <- true)
      h.h_slacks;
    let extras = ref (List.rev !extras) in
    Array.iteri
      (fun r id ->
        if wb.(r) = min_int then
          match id with
          | Assign k ->
            (* coflow without a basic hint: crash default x[k][L] *)
            let v = (vars.(k).(big_l - first_l.(k)) :> int) in
            if used.(v) then wb.(r) <- -1 (* rejected by solver *)
            else begin
              used.(v) <- true;
              wb.(r) <- v
            end
          | Load (side, p, l) ->
            if slack.(load_slot side p l) then wb.(r) <- -1
            else begin
              (* a load row that was tight: house one of the extra basic
                 variables here if any remain, else fall back to the slack *)
              match !extras with
              | v :: rest ->
                extras := rest;
                wb.(r) <- v
              | [] -> wb.(r) <- -1
            end)
      row_ids;
    wb
  in
  (* The fallback start, from the hints' basic completions: place each
     coflow integrally at its hinted grid point, bumping it later whenever
     a present load row would overflow (the last grid point always fits,
     since rows whose full side load fits are omitted).  Every load slack
     stays basic, so the proposal is nonsingular and primal feasible, yet
     it still encodes the previous solve's timing — useful when the exact
     basis map is stale (e.g. a residual re-plan after demands changed).
     With no hints every coflow targets the last grid point and stays
     there: the cold crash basis "every coflow completes at x[k][L]". *)
  let greedy_basis_of_hints basics =
    (* the row index, or -1 where the row was omitted *)
    let row_at = Array.make (2 * m * big_l) (-1) in
    Array.iteri
      (fun r -> function
        | Load (side, p, l) -> row_at.(load_slot side p l) <- r
        | Assign _ -> ())
      row_ids;
    let used = Array.make !nrows 0 in
    let target = Array.make n big_l in
    let seen = Array.make n false in
    List.iter
      (fun (k, t) ->
        if k >= 0 && k < n && not seen.(k) then begin
          seen.(k) <- true;
          target.(k) <- max first_l.(k) (l_of_time t)
        end)
      basics;
    let order = Array.init n (fun k -> k) in
    Array.sort
      (fun a b ->
        match compare target.(a) target.(b) with 0 -> compare a b | c -> c)
      order;
    let placement = Array.make n big_l in
    Array.iter
      (fun k ->
        let fits l =
          let side_ok side load =
            let ok = ref true in
            Array.iteri
              (fun p w ->
                if w > 0 then
                  for l' = l to big_l do
                    let r = row_at.(load_slot side p l') in
                    if r >= 0 && used.(r) + w > tau l' then ok := false
                  done)
              load;
            !ok
          in
          side_ok true row_load.(k) && side_ok false col_load.(k)
        in
        let rec place l = if l >= big_l || fits l then l else place (l + 1) in
        let l = place target.(k) in
        placement.(k) <- l;
        let commit side load =
          Array.iteri
            (fun p w ->
              if w > 0 then
                for l' = l to big_l do
                  let r = row_at.(load_slot side p l') in
                  if r >= 0 then used.(r) <- used.(r) + w
                done)
            load
        in
        commit true row_load.(k);
        commit false col_load.(k))
      order;
    Array.map
      (function
        | Load _ -> -1
        | Assign k -> (vars.(k).(placement.(k) - first_l.(k)) :> int))
      row_ids
  in
  let decode solution =
    (match solution.Lp.Solution.status with
    | Lp.Solution.Optimal -> ()
    | s ->
      failwith
        (Printf.sprintf "Lp_relax: solver returned %s"
           (Lp.Solution.status_to_string s)));
    let value v = Lp.Solution.value solution v in
    let cbar =
      Array.init n (fun k ->
          let acc = ref 0.0 in
          for l = first_l.(k) to big_l do
            match var k l with
            | Some v -> acc := !acc +. (obj_coeff l *. value v)
            | None -> ()
          done;
          !acc)
    in
    let values = ref [] in
    for k = n - 1 downto 0 do
      for l = big_l downto first_l.(k) do
        match var k l with
        | Some v ->
          let x = value v in
          if x > 1e-9 then values := (k, l, x) :: !values
        | None -> ()
      done
    done;
    let warm =
      Option.map
        (fun basis ->
          let basics = ref [] and slacks = ref [] in
          Array.iteri
            (fun r c ->
              if c = -1 then
                match row_ids.(r) with
                | Load (side, p, l) ->
                  slacks := (side, p, float_of_int (tau l)) :: !slacks
                | Assign _ -> ()
              else
                let k, l = var_meta.(c) in
                basics := (k, float_of_int (tau l)) :: !basics)
            basis;
          { h_basics = List.rev !basics; h_slacks = List.rev !slacks })
        solution.Lp.Solution.basis
    in
    { cbar;
      order = order_of_cbar cbar;
      lower_bound = solution.Lp.Solution.objective;
      iterations = solution.Lp.Solution.iterations;
      refactors = solution.Lp.Solution.refactors;
      values = !values;
      warm;
    }
  in
  { relaxation = { model; decode };
    warm_basis = Option.map basis_of_hints warm_start;
    crash_basis =
      lazy
        (greedy_basis_of_hints
           (match warm_start with Some h -> h.h_basics | None -> []));
  }

let prepare ?warm_start formulation inst =
  let n = Instance.num_coflows inst in
  match formulation with
  | Interval base ->
    if base <= 1.0 then
      invalid_arg "Lp_relax.solve_interval_base: base must exceed 1";
    if n = 0 || Instance.total_units inst = 0 then Solved (trivial_result n)
    else
      let taus = grid ~base (max 1 (Instance.horizon inst)) in
      Built (build_on_grid ?warm_start ~taus ~obj_at:`Left inst)
  | Time_indexed ->
    (* A zero-demand coflow completes on arrival (C = r, as Engine.measure
       reports it) but the grid has no tau = 0, so the model would charge
       one released at 0 a full slot: keep such coflows out of the model
       and charge each w * r. *)
    let coflows = Instance.coflows inst in
    let keep =
      List.filter (fun k -> Mat.total coflows.(k).Instance.demand > 0)
        (List.init n Fun.id)
      |> Array.of_list
    in
    let sub =
      Instance.make ~ports:(Instance.ports inst)
        (Array.to_list (Array.map (fun k -> coflows.(k)) keep))
    in
    let prepared =
      if keep = [||] then Solved (trivial_result 0)
      else
        Built
          (build_on_grid ?warm_start
             ~taus:(Array.init (Instance.horizon sub) (fun i -> i + 1))
             ~obj_at:`Right sub)
    in
    if Array.length keep = n then prepared
    else begin
      let empty_cost =
        Array.fold_left
          (fun acc c ->
            if Mat.total c.Instance.demand > 0 then acc
            else acc +. (c.Instance.weight *. float_of_int c.Instance.release))
          0.0 coflows
      in
      (* the sub-instance's result, in the whole instance's indices *)
      let widen r =
        let cbar =
          Array.map (fun c -> float_of_int c.Instance.release) coflows
        in
        Array.iteri (fun i k -> cbar.(k) <- r.cbar.(i)) keep;
        { r with
          cbar;
          order = order_of_cbar cbar;
          lower_bound = r.lower_bound +. empty_cost;
          values = List.map (fun (i, l, x) -> (keep.(i), l, x)) r.values;
          warm =
            Option.map (remap_hints ~index_map:(fun i -> Some keep.(i))) r.warm;
        }
      in
      match prepared with
      | Solved r -> Solved (widen r)
      | Built b ->
        let decode s = widen (b.relaxation.decode s) in
        Built { b with relaxation = { b.relaxation with decode } }
    end

let solve ?max_iterations ?deadline ?warm_start formulation inst =
  match prepare ?warm_start formulation inst with
  | Solved r -> r
  | Built { relaxation; warm_basis; crash_basis } ->
    relaxation.decode
      (Lp.Revised_simplex.solve ?max_iterations ?deadline ?warm_basis
         ~crash_basis relaxation.model)

let relaxation formulation inst =
  match prepare formulation inst with
  | Solved _ -> None
  | Built b -> Some b.relaxation

let solve_interval_base ?max_iterations ?deadline ?warm_start ~base inst =
  solve ?max_iterations ?deadline ?warm_start (Interval base) inst

(* base 2 gives tau_l = 2^(l-1) for l = 1 .. interval_count *)
let solve_interval ?max_iterations ?deadline ?warm_start inst =
  solve ?max_iterations ?deadline ?warm_start (Interval 2.0) inst

let solve_time_indexed ?max_iterations ?deadline ?(max_vars = 100_000) inst =
  let n = Instance.num_coflows inst in
  let t = Instance.horizon inst in
  if Instance.total_units inst > 0 && n * t > max_vars then
    raise
      (Too_large
         (Printf.sprintf
            "LP-EXP would need %d variables (n=%d, T=%d) > max_vars=%d" (n * t)
            n t max_vars));
  solve ?max_iterations ?deadline Time_indexed inst
