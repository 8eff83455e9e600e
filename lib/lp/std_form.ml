type t = {
  n_struct : int;
  n_rows : int;
  a : Lina.Csc.t;
  cost : float array;
  lb : float array;
  ub : float array;
  obj_const : float;
  obj_factor : float;
  integer : bool array;
}

(* A counting transpose of the model's row store: column counts, then
   every row's terms in row order — so rows ascend within each column —
   and row i's logical −1 in column n + i.  [col_ptr] doubles as the fill
   cursor: after the scatter slot [j] holds the end of column [j], and
   one shift restores the starts.  Canonical rows repeat no variable and
   hold no zero, so no entry needs merging or dropping. *)
let of_model m =
  let n = Model.num_vars m in
  let nr = Model.num_constrs m in
  let total = n + nr in
  let row_start, t_var, t_coeff = Model.row_store m in
  let nt = row_start.(nr) in
  let col_ptr = Array.make (total + 1) 0 in
  for p = 0 to nt - 1 do
    let v = t_var.(p) in
    col_ptr.(v + 1) <- col_ptr.(v + 1) + 1
  done;
  for i = 0 to nr - 1 do
    col_ptr.(n + i + 1) <- 1
  done;
  for j = 1 to total do
    col_ptr.(j) <- col_ptr.(j) + col_ptr.(j - 1)
  done;
  let row_idx = Array.make (nt + nr) 0 and value = Array.create_float (nt + nr) in
  for i = 0 to nr - 1 do
    for p = row_start.(i) to row_start.(i + 1) - 1 do
      let v = t_var.(p) in
      let q = col_ptr.(v) in
      row_idx.(q) <- i;
      value.(q) <- t_coeff.(p);
      col_ptr.(v) <- q + 1
    done;
    let q = col_ptr.(n + i) in
    row_idx.(q) <- i;
    value.(q) <- -1.0;
    col_ptr.(n + i) <- q + 1
  done;
  for j = total downto 1 do
    col_ptr.(j) <- col_ptr.(j - 1)
  done;
  col_ptr.(0) <- 0;
  let a = Lina.Csc.of_arrays ~rows:nr ~cols:total ~col_ptr ~row_idx ~value in
  let lb = Array.make total 0.0 and ub = Array.make total 0.0 in
  for i = 0 to nr - 1 do
    lb.(n + i) <- Model.row_lo m i;
    ub.(n + i) <- Model.row_hi m i
  done;
  let sense, obj, obj_const = Model.objective m in
  let obj_factor = match sense with Model.Minimize -> 1.0 | Model.Maximize -> -1.0 in
  let cost = Array.make total 0.0 in
  List.iter (fun ((v : Model.var), c) -> cost.((v :> int)) <- obj_factor *. c) obj;
  let integer = Array.make n false in
  for v = 0 to n - 1 do
    let hv = Model.var_of_id m v in
    lb.(v) <- Model.var_lb m hv;
    ub.(v) <- Model.var_ub m hv;
    (match Model.var_kind m hv with
    | Model.Integer | Model.Binary -> integer.(v) <- true
    | Model.Continuous -> ())
  done;
  {
    n_struct = n;
    n_rows = nr;
    a;
    cost;
    lb;
    ub;
    obj_const;
    obj_factor;
    integer;
  }

let n_total sf = sf.n_struct + sf.n_rows

type column = {
  col_cost : float;
  col_lb : float;
  col_ub : float;
  col_entries : (int * float) list;
}

(* New columns are inserted at structural positions [n_struct ..
   n_struct+k-1] — i.e. {e before} the logicals — so every index contract
   downstream survives unchanged: logicals stay the last [n_rows]
   columns, [x = xval[0..n_struct)] still extracts the structurals, and a
   basis over the old form maps to the new one by shifting indices
   >= old [n_struct] up by [k].  The columns are spliced straight into
   new CSC arrays: the old columns, then the new entries summed per row
   (see the mli). *)
let append_columns sf cols =
  let k = List.length cols in
  if k = 0 then sf
  else begin
    let n = sf.n_struct and nr = sf.n_rows in
    let carr = Array.of_list cols in
    Array.iteri
      (fun idx c ->
        if c.col_lb > c.col_ub then
          invalid_arg
            (Printf.sprintf "Std_form.append_columns: column %d: lb > ub" (n + idx));
        List.iter
          (fun (i, _) ->
            if i < 0 || i >= nr then
              invalid_arg
                (Printf.sprintf "Std_form.append_columns: column %d: unknown row %d"
                   (n + idx) i))
          c.col_entries)
      carr;
    let n' = n + k in
    let total' = n' + nr in
    (* Each new column's entries ordered by row, repeats newest first:
       the order they are summed in. *)
    let sorted =
      Array.map
        (fun c ->
          List.stable_sort
            (fun (i, _) (i', _) -> Int.compare i i')
            (List.rev c.col_entries))
        carr
    in
    let ptr = sf.a.Lina.Csc.col_ptr and ri = sf.a.Lina.Csc.row_idx
    and va = sf.a.Lina.Csc.value in
    let cap =
      Array.fold_left (fun acc l -> acc + List.length l) ptr.(n + nr) sorted
    in
    let col_ptr = Array.make (total' + 1) 0 in
    let row_idx = Array.make cap 0 and value = Array.create_float cap in
    let out = ref 0 in
    (* Old column [j] as column [j'], dropping an entry that
       [Tol.is_zero] accepts. *)
    let copy j j' =
      col_ptr.(j') <- !out;
      for p = ptr.(j) to ptr.(j + 1) - 1 do
        if not (Lina.Tol.is_zero va.(p)) then begin
          row_idx.(!out) <- ri.(p);
          value.(!out) <- va.(p);
          incr out
        end
      done
    in
    for j = 0 to n - 1 do
      copy j j
    done;
    Array.iteri
      (fun idx entries ->
        col_ptr.(n + idx) <- !out;
        let rec merge = function
          | [] -> ()
          | (i, v) :: rest ->
            let rec sum v = function
              | (i', v') :: rest when i' = i -> sum (v +. v') rest
              | rest -> (v, rest)
            in
            let v, rest = sum v rest in
            if not (Lina.Tol.is_zero v) then begin
              row_idx.(!out) <- i;
              value.(!out) <- v;
              incr out
            end;
            merge rest
        in
        merge entries)
      sorted;
    for j = n to n + nr - 1 do
      copy j (j + k)
    done;
    col_ptr.(total') <- !out;
    let row_idx = if !out = cap then row_idx else Array.sub row_idx 0 !out in
    let value = if !out = cap then value else Array.sub value 0 !out in
    let a =
      Lina.Csc.of_arrays ~rows:nr ~cols:total' ~col_ptr ~row_idx ~value
    in
    let splice old mk_new =
      Array.init total' (fun j ->
          if j < n then old.(j)
          else if j < n' then mk_new (j - n)
          else old.(j - k))
    in
    let cost = splice sf.cost (fun i -> sf.obj_factor *. carr.(i).col_cost) in
    let lb = splice sf.lb (fun i -> carr.(i).col_lb) in
    let ub = splice sf.ub (fun i -> carr.(i).col_ub) in
    let integer =
      Array.init n' (fun j -> if j < n then sf.integer.(j) else false)
    in
    { sf with n_struct = n'; a; cost; lb; ub; integer }
  end

let user_objective sf internal = (sf.obj_factor *. internal) +. sf.obj_const

(* Row activities into [act.(0 .. n_rows-1)]: columns ascending, each
   over its CSC entries in order.  Reads the CSC arrays directly, since
   an [iter_col] callback would allocate a closure and box every
   coefficient. *)
let activity_into sf x act =
  if Array.length x <> sf.n_struct then invalid_arg "Std_form.row_activity";
  Array.fill act 0 sf.n_rows 0.0;
  let ptr = sf.a.Lina.Csc.col_ptr and ri = sf.a.Lina.Csc.row_idx
  and va = sf.a.Lina.Csc.value in
  for j = 0 to sf.n_struct - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for e = ptr.(j) to ptr.(j + 1) - 1 do
        let i = ri.(e) in
        act.(i) <- act.(i) +. (va.(e) *. xj)
      done
  done

let row_activity sf x =
  let act = Array.make sf.n_rows 0.0 in
  activity_into sf x act;
  act

let is_feasible_point ?(tol = Lina.Tol.feas) ?act sf ?lb ?ub x =
  let lbs = match lb with Some l -> l | None -> sf.lb in
  let ubs = match ub with Some u -> u | None -> sf.ub in
  let ok = ref true in
  for j = 0 to sf.n_struct - 1 do
    if x.(j) < lbs.(j) -. tol || x.(j) > ubs.(j) +. tol then ok := false
  done;
  if !ok then begin
    let act =
      match act with
      | Some act ->
        activity_into sf x act;
        act
      | None -> row_activity sf x
    in
    for i = 0 to sf.n_rows - 1 do
      let scale = Float.max 1.0 (Float.abs act.(i)) in
      if
        act.(i) < sf.lb.(sf.n_struct + i) -. (tol *. scale)
        || act.(i) > sf.ub.(sf.n_struct + i) +. (tol *. scale)
      then ok := false
    done
  end;
  !ok
