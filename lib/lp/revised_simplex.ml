let src = Logs.Src.create "lp.revised" ~doc:"Revised simplex"

module Log = (val Logs.src_log src : Logs.LOG)

(* Process-wide effort counters, shared with every profile/bench exporter;
   the per-state [iterations]/[refactors] fields below steer the algorithm
   (iteration limits, refactorization cadence) and feed [Solution.t]. *)
let c_pivots = Obs.Counter.make "lp.pivots"
let c_refactors = Obs.Counter.make "lp.refactors"

type warm_basis = int array

let feas_tol = 1e-7
let opt_tol = 1e-7
let pivot_tol = 1e-8

(* Factorization tolerances: [markowitz_tol] is the relative threshold-pivoting
   bound inside a candidate column, [drop_tol] drops fill-in that cancels to
   noise, [singular_tol] declares a column numerically empty, and
   [eta_piv_tol] forces an early refactorization instead of accepting a
   fragile update pivot. *)
let markowitz_tol = 0.1
let drop_tol = 1e-13
let singular_tol = 1e-11
let eta_piv_tol = 1e-7

(* Column numbering: [0 .. ncols-1] structural, [ncols + r] slack/surplus of
   row [r] (absent for equality rows), [ncols + nrows + r] artificial of row
   [r]. *)

type problem = {
  nrows : int;
  ncols : int;
  col_rows : int array array; (* structural columns, rows normalised *)
  col_vals : float array array;
  rhs : float array; (* all >= 0 after normalisation *)
  slack_sign : float array; (* +1 (Le), -1 (Ge), 0 (Eq) per row *)
  obj : float array; (* structural minimisation costs *)
  flipped : bool array; (* rows negated during normalisation *)
}

(* Rows with a negative right-hand side are negated.  When none is, the
   problem shares the standard form's column, objective and right-hand-side
   arrays: the solver only reads them. *)
let normalise (std : Std_form.t) =
  let nrows = std.Std_form.nrows and ncols = std.Std_form.ncols in
  let flip = Array.map (fun b -> b < 0.0) std.Std_form.rhs in
  let slack_sign =
    Array.init nrows (fun r ->
        let sign =
          match std.Std_form.senses.(r) with
          | Std_form.Le -> 1.0
          | Std_form.Ge -> -1.0
          | Std_form.Eq -> 0.0
        in
        if flip.(r) then -.sign else sign)
  in
  let any_flip = Array.exists Fun.id flip in
  let rhs, col_vals =
    if not any_flip then (std.Std_form.rhs, std.Std_form.col_vals)
    else
      ( Array.mapi (fun r b -> if flip.(r) then -.b else b) std.Std_form.rhs,
        Array.mapi
          (fun c vals ->
            let rows = std.Std_form.col_rows.(c) in
            Array.mapi (fun k v -> if flip.(rows.(k)) then -.v else v) vals)
          std.Std_form.col_vals )
  in
  { nrows;
    ncols;
    col_rows = std.Std_form.col_rows;
    col_vals;
    rhs;
    slack_sign;
    obj = std.Std_form.obj;
    flipped = flip;
  }

(* A slack or artificial column ([c >= ncols]) is a single entry: its row
   and its value. *)
let[@inline] unit_row p c =
  if c < p.ncols + p.nrows then c - p.ncols else c - p.ncols - p.nrows

let[@inline] unit_val p c =
  if c < p.ncols + p.nrows then p.slack_sign.(c - p.ncols) else 1.0

(* Sparse representation of an arbitrary (structural / slack / artificial)
   column. *)
let column p c =
  if c < p.ncols then (p.col_rows.(c), p.col_vals.(c))
  else ([| unit_row p c |], [| unit_val p c |])

(* ---------- sparse LU factors and the eta file ----------

   The basis inverse is never formed.  At (re)factorization time a
   Markowitz-ordered sparse Gaussian elimination produces triangular factors
   of the basis matrix; between refactorizations each pivot appends one eta
   vector (product-form update).  FTRAN/BTRAN apply the factors and the eta
   file; cost is proportional to the factor + eta fill, not nrows^2. *)

(* One product-form update: the basis column at position [e_pos] was replaced
   by a column whose FTRAN image was [d]; [e_piv = d.(e_pos)], and
   [e_idx]/[e_val] are the other non-zeros of [d] (by basis position). *)
type eta = {
  e_pos : int;
  e_piv : float;
  e_idx : int array;
  e_val : float array;
}

(* LU factors as the pivot sequence of the elimination, stored flat.  Step
   [k] pivoted on constraint row [piv_row.(k)] and basis position
   [piv_pos.(k)] with pivot value [piv_val.(k)].  Its below-pivot
   multipliers (by constraint row, ascending) are entries
   [l_ptr.(k) .. l_ptr.(k+1) - 1] of [l_idx]/[l_val]; the remaining entries
   of its pivot row (by basis position, ascending, pivoted at later steps)
   are entries [u_ptr.(k) .. u_ptr.(k+1) - 1] of [u_idx]/[u_val].  [ut_*]
   index U by column for the transposed solve: entry [i] of step [j] says
   that step [ut_idx.(i) < j] has coefficient [ut_val.(i)] at position
   [piv_pos.(j)], ascending by step. *)
type lu = {
  piv_row : int array;
  piv_pos : int array;
  piv_val : float array;
  l_ptr : int array;
  l_idx : int array;
  l_val : float array;
  u_ptr : int array;
  u_idx : int array;
  u_val : float array;
  ut_ptr : int array;
  ut_idx : int array;
  ut_val : float array;
}

let empty_lu =
  { piv_row = [||];
    piv_pos = [||];
    piv_val = [||];
    l_ptr = [| 0 |];
    l_idx = [||];
    l_val = [||];
    u_ptr = [| 0 |];
    u_idx = [||];
    u_val = [||];
    ut_ptr = [| 0 |];
    ut_idx = [||];
    ut_val = [||];
  }

type state = {
  p : problem;
  total : int; (* ncols + 2 * nrows *)
  basis : int array; (* column per basis position *)
  in_basis : bool array;
  mutable lu : lu;
  mutable etas : eta array; (* growable; [neta] entries are live *)
  mutable neta : int;
  xb : float array;
  wrow : float array; (* scratch over constraint rows *)
  wpos : float array; (* scratch over basis positions *)
  mutable iterations : int;
  mutable refactors : int;
  mutable degenerate_streak : int;
  mutable bland : bool;
  mutable cursor : int; (* partial-pricing start column *)
}

let n_of st = st.p.nrows

let push_eta st eta =
  let cap = Array.length st.etas in
  if st.neta >= cap then begin
    let etas = Array.make (max 8 (2 * cap)) eta in
    Array.blit st.etas 0 etas 0 cap;
    st.etas <- etas
  end;
  st.etas.(st.neta) <- eta;
  st.neta <- st.neta + 1

(* Forward L solve, in place on a dense constraint-row vector. *)
let lu_apply_l lu w =
  let n = Array.length lu.piv_row in
  let idx = lu.l_idx and vals = lu.l_val in
  for k = 0 to n - 1 do
    let t = Array.unsafe_get w (Array.unsafe_get lu.piv_row k) in
    if t <> 0.0 then
      for i = lu.l_ptr.(k) to lu.l_ptr.(k + 1) - 1 do
        let r = Array.unsafe_get idx i in
        Array.unsafe_set w r
          (Array.unsafe_get w r -. (Array.unsafe_get vals i *. t))
      done
  done

(* Backward U solve: reads the L-solved row vector [w], writes every basis
   position of [d]. *)
let lu_apply_u lu w d =
  let n = Array.length lu.piv_row in
  let pos = lu.u_idx and uv = lu.u_val in
  for k = n - 1 downto 0 do
    let s = ref (Array.unsafe_get w lu.piv_row.(k)) in
    for i = lu.u_ptr.(k) to lu.u_ptr.(k + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get uv i
           *. Array.unsafe_get d (Array.unsafe_get pos i))
    done;
    d.(lu.piv_pos.(k)) <- !s /. lu.piv_val.(k)
  done

(* d = B^-1 * A_c for a sparse column, through the factors + eta file. *)
let ftran st (rows, vals) d =
  let n = n_of st in
  let w = st.wrow in
  Array.fill w 0 n 0.0;
  for k = 0 to Array.length rows - 1 do
    w.(rows.(k)) <- w.(rows.(k)) +. vals.(k)
  done;
  lu_apply_l st.lu w;
  lu_apply_u st.lu w d;
  for e = 0 to st.neta - 1 do
    let eta = Array.unsafe_get st.etas e in
    let xr = d.(eta.e_pos) /. eta.e_piv in
    d.(eta.e_pos) <- xr;
    if xr <> 0.0 then begin
      let idx = eta.e_idx and ev = eta.e_val in
      for i = 0 to Array.length idx - 1 do
        let r = Array.unsafe_get idx i in
        Array.unsafe_set d r
          (Array.unsafe_get d r -. (Array.unsafe_get ev i *. xr))
      done
    end
  done

(* y = cb^T B^-1 where cb is given per basis position: eta transposes in
   reverse order, then the transposed U and L solves. *)
let btran st cb y =
  let n = n_of st in
  let lu = st.lu in
  let v = st.wpos in
  Array.blit cb 0 v 0 n;
  for e = st.neta - 1 downto 0 do
    let eta = Array.unsafe_get st.etas e in
    let idx = eta.e_idx and ev = eta.e_val in
    let acc = ref v.(eta.e_pos) in
    for i = 0 to Array.length idx - 1 do
      acc := !acc -. (Array.unsafe_get ev i *. Array.unsafe_get v (Array.unsafe_get idx i))
    done;
    v.(eta.e_pos) <- !acc /. eta.e_piv
  done;
  let us = lu.ut_idx and uv = lu.ut_val in
  for k = 0 to n - 1 do
    let s = ref v.(lu.piv_pos.(k)) in
    for i = lu.ut_ptr.(k) to lu.ut_ptr.(k + 1) - 1 do
      s :=
        !s
        -. (Array.unsafe_get uv i
           *. Array.unsafe_get y lu.piv_row.(Array.unsafe_get us i))
    done;
    y.(lu.piv_row.(k)) <- !s /. lu.piv_val.(k)
  done;
  let rows = lu.l_idx and vals = lu.l_val in
  for k = n - 1 downto 0 do
    let acc = ref y.(lu.piv_row.(k)) in
    for i = lu.l_ptr.(k) to lu.l_ptr.(k + 1) - 1 do
      acc := !acc -. (Array.unsafe_get vals i *. Array.unsafe_get y (Array.unsafe_get rows i))
    done;
    y.(lu.piv_row.(k)) <- !acc
  done

(* [cost] holds the phase's cost of every column; a slack or artificial
   column is read in place rather than built. *)
let reduced_cost st cost y c =
  let p = st.p in
  if c < p.ncols then begin
    let rows = p.col_rows.(c) and vals = p.col_vals.(c) in
    let acc = ref cost.(c) in
    for k = 0 to Array.length rows - 1 do
      acc := !acc -. (Array.unsafe_get y (Array.unsafe_get rows k)
                      *. Array.unsafe_get vals k)
    done;
    !acc
  end
  else cost.(c) -. (y.(unit_row p c) *. unit_val p c)

(* Scratch for [factorize], kept per domain and reused by every
   factorization there; a larger basis replaces it with a larger one.  The
   active submatrix lives here: column [j] is [cr.(j)]/[cv.(j)] (row, value)
   with exactly [cn.(j)] live entries, row [r] lists in [rp.(r)] the
   positions that have, or once had, an entry in it ([rpn.(r)] listed).  The
   stamp arrays are never cleared: each factorization step and each column
   sweep takes fresh stamps from [stamp]. *)
type entries = { mutable idx : int array; mutable vals : float array }

type work = {
  cap : int;
  cr : int array array;
  cv : float array array;
  cn : int array;
  rp : int array array;
  rpn : int array;
  rowcnt : int array; (* exact active entries per row *)
  active : bool array; (* column not yet pivoted *)
  lmark : int array; (* row stamped: on the current pivot column *)
  lmul : float array; (* ... with this multiplier *)
  ustamp : int array; (* position stamped: read for the current U row *)
  uval : float array; (* ... with this pivot-row value *)
  seen : int array; (* row stamped: updated by the current sweep *)
  ubuf : int array; (* the current U row's positions *)
  lbuf : int array; (* the current L column's rows *)
  step_of : int array;
  next : int array;
  mutable stamp : int;
  l_out : entries; (* factor entries as they are written *)
  u_out : entries;
}

let make_work cap =
  { cap;
    cr = Array.make cap [||];
    cv = Array.make cap [||];
    cn = Array.make cap 0;
    rp = Array.make cap [||];
    rpn = Array.make cap 0;
    rowcnt = Array.make cap 0;
    active = Array.make cap false;
    lmark = Array.make cap (-1);
    lmul = Array.make cap 0.0;
    ustamp = Array.make cap (-1);
    uval = Array.make cap 0.0;
    seen = Array.make cap (-1);
    ubuf = Array.make cap 0;
    lbuf = Array.make cap 0;
    step_of = Array.make cap 0;
    next = Array.make cap 0;
    stamp = 0;
    l_out = { idx = Array.make cap 0; vals = Array.make cap 0.0 };
    u_out = { idx = Array.make cap 0; vals = Array.make cap 0.0 };
  }

let work_key = Domain.DLS.new_key (fun () -> make_work 0)

let work_for n =
  let w = Domain.DLS.get work_key in
  if w.cap >= n then w
  else begin
    let w = make_work (max n (2 * w.cap)) in
    Domain.DLS.set work_key w;
    w
  end

(* Room for [need] entries in column [j], keeping its [cn.(j)] live ones. *)
let reserve_col w j need =
  if Array.length w.cr.(j) < need then begin
    let cap = max 4 (2 * need) in
    let rs = Array.make cap 0 and vs = Array.make cap 0.0 in
    Array.blit w.cr.(j) 0 rs 0 w.cn.(j);
    Array.blit w.cv.(j) 0 vs 0 w.cn.(j);
    w.cr.(j) <- rs;
    w.cv.(j) <- vs
  end

let list_in_row w r pos =
  let k = w.rpn.(r) in
  if k = Array.length w.rp.(r) then begin
    let a = Array.make (max 4 (2 * k)) 0 in
    Array.blit w.rp.(r) 0 a 0 k;
    w.rp.(r) <- a
  end;
  w.rp.(r).(k) <- pos;
  w.rpn.(r) <- k + 1

(* Room for [need] entries in a factor being written. *)
let reserve_entries (f : entries) need =
  let cap = Array.length f.idx in
  if cap < need then begin
    let idx = Array.make (max need (2 * cap)) 0 in
    let vals = Array.make (max need (2 * cap)) 0.0 in
    Array.blit f.idx 0 idx 0 cap;
    Array.blit f.vals 0 vals 0 cap;
    f.idx <- idx;
    f.vals <- vals
  end

(* Sort the first [len] entries of [a]: insertion sort for the short index
   lists of one elimination step, the library heap sort beyond that. *)
let sort_prefix (a : int array) len =
  if len > 16 then begin
    let b = Array.sub a 0 len in
    Array.sort Int.compare b;
    Array.blit b 0 a 0 len
  end
  else
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Refactorize: Markowitz-ordered sparse LU of the current basis matrix,
   eta file cleared, xb recomputed from scratch.  Returns [false] when the
   basis matrix is numerically singular.  [log_drift] compares the fresh xb
   with the incrementally maintained one (update-drift telemetry).

   The active submatrix is flat (see [work]): a row's position list may
   hold stale entries (eliminated, dropped, or pivoted columns) and repeats
   (an entry dropped, then refilled), which readers skip, while [rowcnt]
   stays exact.  The elimination scatters the pivot column's multipliers by
   row ([lmark]/[lmul]).

   The pivot rule is a strict total order on the candidate entries: the
   smallest Markowitz score, then the larger |v|, then the smaller
   (row, position).  So the chosen pivots do not depend on the order in
   which the storage lists entries, and since each factor entry comes from
   fixed floating-point operations (L = v / pv, one [prev -. m *. vpj] per
   entry per step, the drop threshold) and L and U are stored sorted, the
   factors are a function of the basis alone, bit for bit. *)
let factorize ?(log_drift = false) st =
  let p = st.p in
  let n = p.nrows in
  let w = work_for n in
  let cr = w.cr and cv = w.cv and cn = w.cn in
  let rp = w.rp and rpn = w.rpn and rowcnt = w.rowcnt and active = w.active in
  for r = 0 to n - 1 do
    rowcnt.(r) <- 0;
    rpn.(r) <- 0;
    active.(r) <- true
  done;
  for pos = 0 to n - 1 do
    let c = st.basis.(pos) in
    cn.(pos) <- 0;
    if c < p.ncols then begin
      let rows = p.col_rows.(c) and vals = p.col_vals.(c) in
      reserve_col w pos (Array.length rows);
      let rs = cr.(pos) and vs = cv.(pos) in
      for i = 0 to Array.length rows - 1 do
        if vals.(i) <> 0.0 then begin
          rs.(cn.(pos)) <- rows.(i);
          vs.(cn.(pos)) <- vals.(i);
          cn.(pos) <- cn.(pos) + 1
        end
      done
    end
    else begin
      let r = unit_row p c and v = unit_val p c in
      if v <> 0.0 then begin
        reserve_col w pos 1;
        cr.(pos).(0) <- r;
        cv.(pos).(0) <- v;
        cn.(pos) <- 1
      end
    end;
    for i = 0 to cn.(pos) - 1 do
      let r = cr.(pos).(i) in
      rowcnt.(r) <- rowcnt.(r) + 1;
      list_in_row w r pos
    done
  done;
  let piv_row = Array.make n (-1) and piv_pos = Array.make n (-1) in
  let piv_val = Array.make n 0.0 in
  let l_ptr = Array.make (n + 1) 0 and u_ptr = Array.make (n + 1) 0 in
  let nl = ref 0 and nu = ref 0 in
  let base = w.stamp in
  w.stamp <- base + n;
  let ok = ref true in
  let step = ref 0 in
  while !ok && !step < n do
    let k = !step in
    let stamp = base + k in
    (* Candidate columns: sparsest active ones (count <= min + 1), a
       bounded handful, searched with threshold pivoting for the best
       Markowitz count (rowcnt-1)*(colcnt-1). *)
    let mc = ref max_int in
    for j = 0 to n - 1 do
      if active.(j) && cn.(j) < !mc then mc := cn.(j)
    done;
    let best_score = ref max_int and best_v = ref 0.0 in
    let br = ref (-1) and bc = ref (-1) in
    if !mc <> max_int && !mc <> 0 then begin
      let ncand = ref 0 and j = ref 0 in
      while !ncand < 8 && !j < n do
        let jc = !j in
        if active.(jc) && cn.(jc) <= !mc + 1 then begin
          incr ncand;
          let rs = cr.(jc) and vs = cv.(jc) in
          let colmax = ref 0.0 in
          for q = 0 to cn.(jc) - 1 do
            colmax := Float.max (Float.abs vs.(q)) !colmax
          done;
          if !colmax > singular_tol then
            for q = 0 to cn.(jc) - 1 do
              let r = rs.(q) and v = vs.(q) in
              if Float.abs v >= markowitz_tol *. !colmax then begin
                let score = (rowcnt.(r) - 1) * (cn.(jc) - 1) in
                if
                  score < !best_score
                  || score = !best_score
                     && (Float.abs v > Float.abs !best_v
                        || Float.abs v = Float.abs !best_v
                           && (r < !br || (r = !br && jc < !bc)))
                then begin
                  best_score := score;
                  best_v := v;
                  br := r;
                  bc := jc
                end
              end
            done
        end;
        incr j
      done
    end;
    if !bc < 0 then ok := false
    else begin
      let pr = !br and pc = !bc and pv = !best_v in
      piv_row.(k) <- pr;
      piv_pos.(k) <- pc;
      piv_val.(k) <- pv;
      (* Pivot row across the other active columns: the U row. *)
      let nuk = ref 0 in
      let rl = rp.(pr) in
      for i = 0 to rpn.(pr) - 1 do
        let j = rl.(i) in
        if j <> pc && active.(j) && w.ustamp.(j) <> stamp then begin
          w.ustamp.(j) <- stamp;
          let rs = cr.(j) in
          let q = ref 0 in
          while !q < cn.(j) && rs.(!q) <> pr do
            incr q
          done;
          if !q < cn.(j) then begin
            w.uval.(j) <- cv.(j).(!q);
            w.ubuf.(!nuk) <- j;
            incr nuk
          end
        end
      done;
      let nuk = !nuk in
      sort_prefix w.ubuf nuk;
      let uo = w.u_out in
      reserve_entries uo (!nu + nuk);
      for i = 0 to nuk - 1 do
        let j = w.ubuf.(i) in
        uo.idx.(!nu + i) <- j;
        uo.vals.(!nu + i) <- w.uval.(j)
      done;
      nu := !nu + nuk;
      u_ptr.(k + 1) <- !nu;
      (* Pivot column below the pivot: the L multipliers. *)
      let nlk = ref 0 in
      let rs = cr.(pc) and vs = cv.(pc) in
      for q = 0 to cn.(pc) - 1 do
        let r = rs.(q) in
        if r <> pr then begin
          w.lmark.(r) <- stamp;
          w.lmul.(r) <- vs.(q) /. pv;
          w.lbuf.(!nlk) <- r;
          incr nlk
        end
      done;
      let nlk = !nlk in
      sort_prefix w.lbuf nlk;
      let lo = w.l_out in
      reserve_entries lo (!nl + nlk);
      for i = 0 to nlk - 1 do
        let r = w.lbuf.(i) in
        lo.idx.(!nl + i) <- r;
        lo.vals.(!nl + i) <- w.lmul.(r)
      done;
      nl := !nl + nlk;
      l_ptr.(k + 1) <- !nl;
      (* Deactivate the pivot column and row. *)
      active.(pc) <- false;
      for i = 0 to nlk - 1 do
        let r = w.lbuf.(i) in
        rowcnt.(r) <- rowcnt.(r) - 1
      done;
      (* Right-looking elimination of row [pr] from the U row's columns:
         entries on the pivot column's rows are updated in place (or
         dropped), the pivot column's other rows fill in at the end. *)
      for i = 0 to nuk - 1 do
        let j = w.ubuf.(i) in
        let vpj = w.uval.(j) in
        let sweep = w.stamp in
        w.stamp <- sweep + 1;
        let rs = cr.(j) and vs = cv.(j) in
        let live = ref 0 in
        for q = 0 to cn.(j) - 1 do
          let r = rs.(q) in
          if r <> pr then
            if w.lmark.(r) = stamp then begin
              w.seen.(r) <- sweep;
              let nv = vs.(q) -. (w.lmul.(r) *. vpj) in
              if Float.abs nv <= drop_tol then rowcnt.(r) <- rowcnt.(r) - 1
              else begin
                rs.(!live) <- r;
                vs.(!live) <- nv;
                incr live
              end
            end
            else begin
              rs.(!live) <- r;
              vs.(!live) <- vs.(q);
              incr live
            end
        done;
        cn.(j) <- !live;
        for t = 0 to nlk - 1 do
          let r = w.lbuf.(t) in
          if w.seen.(r) <> sweep then begin
            let nv = -.(w.lmul.(r) *. vpj) in
            if Float.abs nv > drop_tol then begin
              reserve_col w j (cn.(j) + 1);
              cr.(j).(cn.(j)) <- r;
              cv.(j).(cn.(j)) <- nv;
              cn.(j) <- cn.(j) + 1;
              rowcnt.(r) <- rowcnt.(r) + 1;
              list_in_row w r j
            end
          end
        done
      done;
      incr step
    end
  done;
  if !ok then begin
    (* Column-wise index of U for the transposed solve, ascending by step. *)
    let step_of = w.step_of and next = w.next in
    for k = 0 to n - 1 do
      step_of.(piv_pos.(k)) <- k
    done;
    let nu = !nu and nl = !nl in
    let uo = w.u_out and lo = w.l_out in
    let ut_ptr = Array.make (n + 1) 0 in
    for i = 0 to nu - 1 do
      let j = step_of.(uo.idx.(i)) in
      ut_ptr.(j + 1) <- ut_ptr.(j + 1) + 1
    done;
    for j = 0 to n - 1 do
      ut_ptr.(j + 1) <- ut_ptr.(j + 1) + ut_ptr.(j);
      next.(j) <- ut_ptr.(j)
    done;
    let ut_idx = Array.make nu 0 and ut_val = Array.make nu 0.0 in
    for k = 0 to n - 1 do
      for i = u_ptr.(k) to u_ptr.(k + 1) - 1 do
        let j = step_of.(uo.idx.(i)) in
        ut_idx.(next.(j)) <- k;
        ut_val.(next.(j)) <- uo.vals.(i);
        next.(j) <- next.(j) + 1
      done
    done;
    st.lu <-
      { piv_row;
        piv_pos;
        piv_val;
        l_ptr;
        l_idx = Array.sub lo.idx 0 nl;
        l_val = Array.sub lo.vals 0 nl;
        u_ptr;
        u_idx = Array.sub uo.idx 0 nu;
        u_val = Array.sub uo.vals 0 nu;
        ut_ptr;
        ut_idx;
        ut_val;
      };
    st.neta <- 0;
    st.refactors <- st.refactors + 1;
    Obs.Counter.incr c_refactors;
    (* xb = B^-1 rhs, from scratch. *)
    let w = st.wrow in
    Array.blit p.rhs 0 w 0 n;
    lu_apply_l st.lu w;
    if log_drift then begin
      Array.blit st.xb 0 st.wpos 0 n;
      lu_apply_u st.lu w st.xb;
      let drift = ref 0.0 in
      for r = 0 to n - 1 do
        drift := Float.max !drift (Float.abs (st.xb.(r) -. st.wpos.(r)))
      done;
      if !drift > 1e-6 then
        Log.warn (fun f ->
            f "refactorization absorbed xb drift %.3g after %d pivots" !drift
              st.iterations)
    end
    else lu_apply_u st.lu w st.xb
  end;
  !ok

(* Pivot: basis position [leave] is replaced by column [enter] whose ftran
   direction is [d]; [theta] is the step length.  Appends one eta vector and
   updates xb along the (sparse) direction. *)
let pivot st leave enter d theta =
  let n = n_of st in
  let nnz = ref 0 in
  for r = 0 to n - 1 do
    if r <> leave && Float.abs d.(r) > drop_tol then incr nnz
  done;
  let e_idx = Array.make !nnz 0 and e_val = Array.make !nnz 0.0 in
  let i = ref 0 in
  for r = 0 to n - 1 do
    if r <> leave && Float.abs d.(r) > drop_tol then begin
      e_idx.(!i) <- r;
      e_val.(!i) <- d.(r);
      incr i
    end
  done;
  push_eta st { e_pos = leave; e_piv = d.(leave); e_idx; e_val };
  for k = 0 to !nnz - 1 do
    let r = e_idx.(k) in
    st.xb.(r) <- st.xb.(r) -. (theta *. e_val.(k))
  done;
  st.xb.(leave) <- theta;
  st.in_basis.(st.basis.(leave)) <- false;
  st.in_basis.(enter) <- true;
  st.basis.(leave) <- enter;
  st.iterations <- st.iterations + 1;
  Obs.Counter.incr c_pivots;
  if theta <= feas_tol then begin
    st.degenerate_streak <- st.degenerate_streak + 1;
    if st.degenerate_streak > 60 then st.bland <- true
  end
  else begin
    st.degenerate_streak <- 0;
    st.bland <- false
  end

(* Entering-column selection among the columns below [limit] (phase 2 bans
   the artificials).  Partial pricing: scan from the rotating cursor, keep
   the most negative reduced cost seen, and stop early after a full block
   has been scanned with a viable candidate in hand.  The dual
   vector [y] comes from the sparse BTRAN above, so each scan step is a
   sparse dot product.  In Bland mode: lowest-index negative column, full
   determinism. *)
let price st cost ~limit y =
  let total = st.total in
  if st.bland then begin
    let found = ref (-1) in
    (try
       for c = 0 to total - 1 do
         if (not st.in_basis.(c)) && c < limit then begin
           let rc = reduced_cost st cost y c in
           if rc < -.opt_tol then begin
             found := c;
             raise Exit
           end
         end
       done
     with Exit -> ());
    !found
  end
  else begin
    let block = 512 in
    let best = ref (-1) and best_rc = ref (-.opt_tol) in
    let scanned = ref 0 in
    let c = ref st.cursor in
    (try
       while !scanned < total do
         let col = !c in
         if (not st.in_basis.(col)) && col < limit then begin
           let rc = reduced_cost st cost y col in
           if rc < !best_rc then begin
             best_rc := rc;
             best := col
           end
         end;
         incr scanned;
         c := !c + 1;
         if !c >= total then c := 0;
         if !scanned mod block = 0 && !best >= 0 then raise Exit
       done
     with Exit -> ());
    st.cursor <- !c;
    !best
  end

(* Ratio test.  Returns [None] when unbounded.  Prefers, among minimum-ratio
   rows, the largest pivot magnitude for stability; in Bland mode the
   smallest basic column index. *)
let ratio_test st d =
  let n = n_of st in
  let best_ratio = ref infinity in
  let leave = ref (-1) in
  for r = 0 to n - 1 do
    let dr = d.(r) in
    if dr > pivot_tol then begin
      let ratio = st.xb.(r) /. dr in
      let ratio = if ratio < 0.0 then 0.0 else ratio in
      if ratio < !best_ratio -. 1e-10 then begin
        best_ratio := ratio;
        leave := r
      end
      else if ratio <= !best_ratio +. 1e-10 && !leave >= 0 then begin
        let better =
          if st.bland then st.basis.(r) < st.basis.(!leave)
          else Float.abs dr > Float.abs d.(!leave)
        in
        if better then begin
          if ratio < !best_ratio then best_ratio := ratio;
          leave := r
        end
      end
    end
  done;
  if !leave = -1 then None else Some (!leave, !best_ratio)

type phase_outcome = P_optimal | P_unbounded | P_limit | P_deadline

(* The deadline is wall-clock time on the obs monotonic clock (callers
   document wall-clock budgets; the CPU-second [Sys.time] this used to read
   never fires on time under sleeps or IO): checked every 32 pivots to keep
   the clock read off the pivot hot path, and once before the very first
   pivot so a zero deadline aborts on the first check. *)
let past_deadline st stop_at =
  match stop_at with
  | None -> false
  | Some t -> st.iterations land 31 = 0 && Obs.Clock.now_s () >= t

let h_pivot = Obs.Histogram.make "lp.pivot_ns"

let run_phase st cost ~limit ~max_iterations ~refactor ~stop_at =
  let n = n_of st in
  let y = Array.make n 0.0 in
  let cb = Array.make n 0.0 in
  let d = Array.make n 0.0 in
  (* One priced-and-pivoted iteration attempt, split out of [loop] so the
     flight recorder can time it ([`Continue] = keep iterating). *)
  let iterate () =
    if st.neta >= refactor then
      if not (factorize ~log_drift:true st) then
        failwith "Revised_simplex: basis became singular";
    for r = 0 to n - 1 do
      cb.(r) <- cost.(st.basis.(r))
    done;
    btran st cb y;
    let enter = price st cost ~limit y in
    if enter < 0 then `Done P_optimal
    else begin
      ftran st (column st.p enter) d;
      match ratio_test st d with
      | None -> `Done P_unbounded
      | Some (leave, theta) ->
        if Float.abs d.(leave) < eta_piv_tol && st.neta > 0 then begin
          (* Fragile update pivot: rebuild the factors and re-derive the
             direction from them instead of the drifted eta file. *)
          if not (factorize ~log_drift:true st) then
            failwith "Revised_simplex: basis became singular";
          `Continue
        end
        else begin
          pivot st leave enter d theta;
          `Continue
        end
    end
  in
  let rec loop () =
    if st.iterations >= max_iterations then P_limit
    else if past_deadline st stop_at then P_deadline
    else begin
      let t0 = if Obs.Histogram.enabled () then Obs.Clock.now_ns () else 0 in
      let r = iterate () in
      if t0 > 0 then
        Obs.Histogram.observe h_pivot (Obs.Clock.elapsed_ns ~since:t0);
      match r with
      | `Continue -> loop ()
      | `Done outcome -> outcome
    end
  in
  loop ()

let make_state p =
  let n = p.nrows in
  let total = p.ncols + (2 * n) in
  { p;
    total;
    basis = Array.make n (-1);
    in_basis = Array.make total false;
    lu = empty_lu;
    etas = [||];
    neta = 0;
    xb = Array.copy p.rhs;
    wrow = Array.make n 0.0;
    wpos = Array.make n 0.0;
    iterations = 0;
    refactors = 0;
    degenerate_streak = 0;
    bland = false;
    cursor = 0;
  }

(* Default phase-1 start: slack where the slack sign is +1, artificial
   otherwise — a diagonal basis, so the factorization cannot fail. *)
let install_cold_basis st =
  let p = st.p in
  Array.fill st.in_basis 0 st.total false;
  for r = 0 to p.nrows - 1 do
    let c = if p.slack_sign.(r) = 1.0 then p.ncols + r else p.ncols + p.nrows + r in
    st.basis.(r) <- c;
    st.in_basis.(c) <- true
  done;
  if not (factorize st) then
    failwith "Revised_simplex: cold basis factorization failed"

let try_warm_basis st (wb : warm_basis) =
  let p = st.p in
  if Array.length wb <> p.nrows then false
  else begin
    let ok = ref true in
    Array.fill st.in_basis 0 st.total false;
    Array.iteri
      (fun r c ->
        let col =
          if c = -1 then
            if p.slack_sign.(r) = 0.0 then -2 (* equality row has no slack *)
            else p.ncols + r
          else if c >= 0 && c < p.ncols then c
          else -2
        in
        if col = -2 || (col >= 0 && st.in_basis.(col)) then ok := false
        else begin
          st.basis.(r) <- col;
          st.in_basis.(col) <- true
        end)
      wb;
    if not !ok then false
    else if not (factorize st) then false
    else Array.for_all (fun v -> v >= -.feas_tol) st.xb
  end

let artificial_start st = st.p.ncols + st.p.nrows

(* After phase 1: pivot zero-level artificials out of the basis wherever a
   non-artificial column has a non-zero coefficient in their row of
   B^-1 A.  The needed row of B^-1 is one transposed solve (BTRAN of a unit
   vector); candidates are then sparse dot products against it. *)
let expel_artificials st =
  let p = st.p in
  let n = p.nrows in
  let first_art = artificial_start st in
  let unit = Array.make n 0.0 in
  let rowvec = Array.make n 0.0 in
  let d = Array.make n 0.0 in
  for pos = 0 to n - 1 do
    if st.basis.(pos) >= first_art then begin
      Array.fill unit 0 n 0.0;
      unit.(pos) <- 1.0;
      btran st unit rowvec;
      let found = ref (-1) in
      let c = ref 0 in
      while !found < 0 && !c < first_art do
        if not st.in_basis.(!c) then begin
          (* element [pos] of B^-1 A_c *)
          let rows, vals = column p !c in
          let acc = ref 0.0 in
          for k = 0 to Array.length rows - 1 do
            acc := !acc +. (rowvec.(rows.(k)) *. vals.(k))
          done;
          if Float.abs !acc > 1e-7 then found := !c
        end;
        incr c
      done;
      (* [-1] means the row is redundant; the artificial stays basic at
         zero and phase 2 never lets it grow. *)
      if !found >= 0 then begin
        let c = !found in
        ftran st (column p c) d;
        pivot st pos c d st.xb.(pos)
      end
    end
  done

(* The final basis in warm-start format: slacks at their own rows, the
   structural basics on the remaining rows.  Only the column set matters (a
   permutation of basis positions yields the same basis matrix), so the
   assignment is canonical: ascending structural indices onto ascending free
   rows.  Not exportable while an artificial is basic. *)
let export_basis st =
  let p = st.p in
  let first_art = artificial_start st in
  let out = Array.make p.nrows (-2) in
  let structs = ref [] in
  let ok = ref true in
  Array.iter
    (fun c ->
      if c < p.ncols then structs := c :: !structs
      else if c < first_art then out.(c - p.ncols) <- -1
      else ok := false)
    st.basis;
  if not !ok then None
  else begin
    let structs = ref (List.sort compare !structs) in
    for r = 0 to p.nrows - 1 do
      if out.(r) = -2 then
        match !structs with
        | c :: rest ->
          out.(r) <- c;
          structs := rest
        | [] -> ()
    done;
    if Array.exists (fun c -> c = -2) out then None else Some out
  end

let solve ?(max_iterations = 200_000) ?deadline ?warm_basis ?crash_basis
    ?(refactor = 128) model =
  Obs.Span.with_ "lp.solve" @@ fun () ->
  let stop_at =
    match deadline with
    | None -> None
    | Some d ->
      if d < 0.0 then invalid_arg "Revised_simplex.solve: negative deadline";
      Some (Obs.Clock.now_s () +. d)
  in
  let std = Std_form.of_model model in
  let p = normalise std in
  let st = make_state p in
  let first_art = artificial_start st in
  let warm_ok =
    let try_basis label = function
      | None -> false
      | Some wb ->
        let ok = try_warm_basis st wb in
        if not ok then
          Log.info (fun f -> f "%s basis rejected; trying next start" label);
        ok
    in
    try_basis "warm" warm_basis
    || try_basis "crash" (Option.map Lazy.force crash_basis)
  in
  (* Multipliers of the original rows: y = cB^T B^-1 in the normalised
     space, unflipped, and negated back when the model maximised. *)
  let compute_duals () =
    let n = p.nrows in
    let cb = Array.make n 0.0 in
    Array.iteri
      (fun r c -> cb.(r) <- (if c < p.ncols then p.obj.(c) else 0.0))
      st.basis;
    let y = Array.make n 0.0 in
    btran st cb y;
    Array.mapi
      (fun r yr ->
        let yr = if p.flipped.(r) then -.yr else yr in
        if std.Std_form.maximize then -.yr else yr)
      y
  in
  let finish status =
    let values = Array.make p.ncols 0.0 in
    Array.iteri
      (fun r c -> if c < p.ncols then values.(c) <- max 0.0 st.xb.(r))
      st.basis;
    Log.info (fun f ->
        f "solve %s: status=%s iterations=%d refactors=%d etas=%d"
          (Model.name model)
          (Solution.status_to_string status)
          st.iterations st.refactors st.neta);
    { Solution.status;
      objective = Std_form.objective_value std values;
      values;
      iterations = st.iterations;
      refactors = st.refactors;
      duals =
        (if status = Solution.Optimal then Some (compute_duals ()) else None);
      basis = export_basis st;
    }
  in
  let infeasible () =
    { Solution.status = Solution.Infeasible;
      objective = nan;
      values = Array.make p.ncols 0.0;
      iterations = st.iterations;
      refactors = st.refactors;
      duals = None;
      basis = None;
    }
  in
  let phase2 () =
    let cost = Array.make st.total 0.0 in
    Array.blit p.obj 0 cost 0 p.ncols;
    st.bland <- false;
    st.degenerate_streak <- 0;
    match
      run_phase st cost ~limit:first_art ~max_iterations ~refactor ~stop_at
    with
    | P_optimal -> finish Solution.Optimal
    | P_limit -> finish Solution.Iteration_limit
    | P_deadline -> finish Solution.Time_limit
    | P_unbounded ->
      { Solution.status = Solution.Unbounded;
        objective = (if std.Std_form.maximize then infinity else neg_infinity);
        values = Array.make p.ncols 0.0;
        iterations = st.iterations;
        refactors = st.refactors;
        duals = None;
        basis = None;
      }
  in
  if warm_ok then phase2 ()
  else begin
    install_cold_basis st;
    let any_artificial =
      Array.exists (fun c -> c >= first_art) st.basis
    in
    if not any_artificial then phase2 ()
    else begin
      let cost = Array.make st.total 0.0 in
      Array.fill cost first_art (st.total - first_art) 1.0;
      match
        run_phase st cost ~limit:st.total ~max_iterations ~refactor ~stop_at
      with
      | P_limit -> finish Solution.Iteration_limit
      | P_deadline -> finish Solution.Time_limit
      | P_unbounded -> assert false (* phase 1 is bounded below by 0 *)
      | P_optimal ->
        let level = ref 0.0 in
        Array.iteri
          (fun r c -> if c >= first_art then level := !level +. st.xb.(r))
          st.basis;
        if !level > 1e-6 then infeasible ()
        else begin
          expel_artificials st;
          phase2 ()
        end
    end
  end
