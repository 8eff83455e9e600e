type t = {
  sf : Lp.Std_form.t;
  (* Row-wise structural view in CSR form: row [i]'s (column, coeff)
     pairs sit at [row_ptr.(i) .. row_ptr.(i+1)-1], columns descending.
     Logical columns are excluded (their bounds are the row ranges). *)
  row_ptr : int array;
  row_col : int array;
  row_coef : float array;
  root_active : Bytes.t;
      (* rows that tighten a bound or fail when processed alone at the
         form's own bounds: the only rows round 1 must visit while every
         bound is still the form's *)
}

(* Per-worker worklist state: [dirty.(i)] is set when a column of row
   [i] changed bound after the row's last processing began. *)
type scratch = {
  dirty : Bytes.t;
  mutable skipped : int;
  mutable skipped_first : int;
}

let scratch p =
  {
    dirty = Bytes.make p.sf.Lp.Std_form.n_rows '\000';
    skipped = 0;
    skipped_first = 0;
  }

let skipped sc = sc.skipped
let skipped_first_round sc = sc.skipped_first

type outcome = Infeasible_node | Tightened of int

exception Dead

let tol = 1e-7

(* Candidate bound updates for column [j]: rounded for integer columns,
   snapped onto the other side when round-off pushes them a few ulps
   past it (instead of creating a micro-crossing), applied when they
   tighten and [dry] is false.  [true] when the bound moves (would move,
   when [dry]).  Inlined, so the candidate stays unboxed and a round
   allocates nothing. *)
let[@inline] tighten_ub ~dry lb ub j integer new_ub =
  let new_ub = if integer then Float.floor (new_ub +. 1e-6) else new_ub in
  let new_ub =
    if new_ub < lb.(j) && lb.(j) -. new_ub <= tol then lb.(j) else new_ub
  in
  if new_ub < ub.(j) -. 1e-9 then begin
    if not dry then begin
      ub.(j) <- new_ub;
      if lb.(j) > ub.(j) +. tol then raise Dead
    end;
    true
  end
  else false

let[@inline] tighten_lb ~dry lb ub j integer new_lb =
  let new_lb = if integer then Float.ceil (new_lb -. 1e-6) else new_lb in
  let new_lb =
    if new_lb > ub.(j) && new_lb -. ub.(j) <= tol then ub.(j) else new_lb
  in
  if new_lb > lb.(j) +. 1e-9 then begin
    if not dry then begin
      lb.(j) <- new_lb;
      if lb.(j) > ub.(j) +. tol then raise Dead
    end;
    true
  end
  else false

(* Marks every row of column [j], whose bound just moved. *)
let touch sf dirty j =
  let a = sf.Lp.Std_form.a in
  for e = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
    Bytes.unsafe_set dirty a.Lina.Csc.row_idx.(e) '\001'
  done

(* Processes row [i] under the current bounds: raises [Dead] when its
   activity range misses the row range, else tightens its columns from
   the residual activities, marks the rows of every column it moved in
   [dirty] and returns the number of bound changes.  With [dry] it
   writes nothing: the count is then positive exactly when a real pass
   would change something, since up to the first change both read the
   same bounds. *)
let process_row ~dry p dirty ~lb ~ub i =
  let sf = p.sf in
  let n_struct = sf.Lp.Std_form.n_struct in
  let is_integer = sf.Lp.Std_form.integer in
  let row_col = p.row_col and row_coef = p.row_coef in
  let first = p.row_ptr.(i) and last = p.row_ptr.(i + 1) - 1 in
  let lo = lb.(n_struct + i) and hi = ub.(n_struct + i) in
  (* Minimal and maximal row activity under current bounds. *)
  let minact = ref 0.0 and maxact = ref 0.0 in
  for k = first to last do
    let j = row_col.(k) and a = row_coef.(k) in
    if a > 0.0 then begin
      minact := !minact +. (a *. lb.(j));
      maxact := !maxact +. (a *. ub.(j))
    end
    else begin
      minact := !minact +. (a *. ub.(j));
      maxact := !maxact +. (a *. lb.(j))
    end
  done;
  let scale = Float.max 1.0 (Float.max (Float.abs lo) (Float.abs hi)) in
  if !minact > hi +. (tol *. scale) || !maxact < lo -. (tol *. scale) then
    raise Dead;
  (* Per-column tightening from the residual activities. *)
  let changes = ref 0 in
  for k = first to last do
    let j = row_col.(k) and a = row_coef.(k) in
    let integer = is_integer.(j) in
    let before = !changes in
    if a > 0.0 then begin
      (* a·x_j <= hi - (minact - a·lb_j) *)
      let rest_min = !minact -. (a *. lb.(j)) in
      if hi < infinity && rest_min > neg_infinity
         && tighten_ub ~dry lb ub j integer ((hi -. rest_min) /. a)
      then incr changes;
      let rest_max = !maxact -. (a *. ub.(j)) in
      if lo > neg_infinity && rest_max < infinity
         && tighten_lb ~dry lb ub j integer ((lo -. rest_max) /. a)
      then incr changes
    end
    else begin
      let rest_min = !minact -. (a *. ub.(j)) in
      if hi < infinity && rest_min > neg_infinity
         && tighten_lb ~dry lb ub j integer ((hi -. rest_min) /. a)
      then incr changes;
      let rest_max = !maxact -. (a *. lb.(j)) in
      if lo > neg_infinity && rest_max < infinity
         && tighten_ub ~dry lb ub j integer ((lo -. rest_max) /. a)
      then incr changes
    end;
    if !changes > before && not dry then touch sf dirty j
  done;
  !changes

let prepare sf =
  let n_struct = sf.Lp.Std_form.n_struct in
  let n_rows = sf.Lp.Std_form.n_rows in
  let a = sf.Lp.Std_form.a in
  let row_ptr = Array.make (n_rows + 1) 0 in
  for k = 0 to a.Lina.Csc.col_ptr.(n_struct) - 1 do
    let i = a.Lina.Csc.row_idx.(k) in
    row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
  done;
  for i = 1 to n_rows do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  let nnz = row_ptr.(n_rows) in
  let row_col = Array.make nnz 0 and row_coef = Array.create_float nnz in
  (* Fill every row from its end while columns ascend, which leaves the
     columns of each row in descending order. *)
  let fill = Array.sub row_ptr 1 n_rows in
  for j = 0 to n_struct - 1 do
    for k = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
      let i = a.Lina.Csc.row_idx.(k) in
      let q = fill.(i) - 1 in
      row_col.(q) <- j;
      row_coef.(q) <- a.Lina.Csc.value.(k);
      fill.(i) <- q
    done
  done;
  let p =
    { sf; row_ptr; row_col; row_coef; root_active = Bytes.make n_rows '\000' }
  in
  (* Each row alone at the form's bounds, dry so they stay as they are. *)
  let lb = sf.Lp.Std_form.lb and ub = sf.Lp.Std_form.ub in
  for i = 0 to n_rows - 1 do
    match process_row ~dry:true p p.root_active ~lb ~ub i with
    | 0 -> ()
    | _ | (exception Dead) -> Bytes.set p.root_active i '\001'
  done;
  p

(* Every round processes only the dirty rows.  Round 1 starts with the
   rows that change something alone at the form's bounds, plus the rows
   of every column (structural, or a row's own logical) whose bound
   differs from the form's.  A row reached by neither sees the form's
   bounds at its turn, where it changes nothing (bounds equal to the
   form's up to the sign of a zero change no comparison a row's
   processing makes, so value equality is enough).  A later clean row
   would recompute the activities of its last processing from the same
   bounds, which then tightened nothing and proved nothing.  So skipping
   either leaves bounds, counts and rounds as a full sweep's.  Each
   row's flag is cleared as its processing begins, so the changes it
   makes itself re-mark it. *)
let run ?(max_rounds = 10) p sc ~lb ~ub =
  let sf = p.sf in
  let n_struct = sf.Lp.Std_form.n_struct in
  let n_rows = sf.Lp.Std_form.n_rows in
  let form_lb = sf.Lp.Std_form.lb and form_ub = sf.Lp.Std_form.ub in
  let dirty = sc.dirty in
  let changes = ref 0 in
  let round_changes = ref 1 in
  let rounds = ref 0 in
  sc.skipped <- 0;
  sc.skipped_first <- 0;
  try
    Bytes.blit p.root_active 0 dirty 0 n_rows;
    for j = 0 to n_struct - 1 do
      let l = lb.(j) and u = ub.(j) in
      (* Bounds may already be crossed by the branching itself. *)
      if l > u +. tol then raise Dead;
      if l <> form_lb.(j) || u <> form_ub.(j) then touch sf dirty j
    done;
    for i = 0 to n_rows - 1 do
      let j = n_struct + i in
      if lb.(j) <> form_lb.(j) || ub.(j) <> form_ub.(j) then
        Bytes.unsafe_set dirty i '\001'
    done;
    while !round_changes > 0 && !rounds < max_rounds do
      round_changes := 0;
      incr rounds;
      for i = 0 to n_rows - 1 do
        if Bytes.unsafe_get dirty i = '\000' then begin
          sc.skipped <- sc.skipped + 1;
          if !rounds = 1 then sc.skipped_first <- sc.skipped_first + 1
        end
        else begin
          Bytes.unsafe_set dirty i '\000';
          round_changes :=
            !round_changes + process_row ~dry:false p dirty ~lb ~ub i
        end
      done;
      changes := !changes + !round_changes
    done;
    Tightened !changes
  with Dead -> Infeasible_node
