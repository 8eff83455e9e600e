type t = {
  rows : int;
  cols : int;
  col_ptr : int array;
  row_idx : int array;
  value : float array;
}

let of_arrays ~rows ~cols ~col_ptr ~row_idx ~value =
  let nnz = Array.length row_idx in
  let bad () = invalid_arg "Csc.of_arrays" in
  if
    rows < 0 || cols < 0
    || Array.length col_ptr <> cols + 1
    || Array.length value <> nnz
    || col_ptr.(0) <> 0 || col_ptr.(cols) <> nnz
  then bad ();
  for j = 0 to cols - 1 do
    let lo = col_ptr.(j) and hi = col_ptr.(j + 1) in
    if hi < lo then bad ();
    let prev = ref (-1) in
    for k = lo to hi - 1 do
      let r = row_idx.(k) in
      if r <= !prev || r >= rows || value.(k) = 0.0 then bad ();
      prev := r
    done
  done;
  { rows; cols; col_ptr; row_idx; value }

let rows m = m.rows
let cols m = m.cols
let nnz m = Array.length m.value

(* Column by column, rows ascending: each entry is one cell of [dense],
   so there is nothing to sum. *)
let of_dense dense =
  let r = Array.length dense in
  let c = if r = 0 then 0 else Array.length dense.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg "Csc.of_dense: ragged matrix")
    dense;
  let col_ptr = Array.make (c + 1) 0 in
  for j = 0 to c - 1 do
    let k = ref col_ptr.(j) in
    for i = 0 to r - 1 do
      if not (Tol.is_zero dense.(i).(j)) then incr k
    done;
    col_ptr.(j + 1) <- !k
  done;
  let nnz = col_ptr.(c) in
  let row_idx = Array.make nnz 0 and value = Array.create_float nnz in
  for j = 0 to c - 1 do
    let k = ref col_ptr.(j) in
    for i = 0 to r - 1 do
      let v = dense.(i).(j) in
      if not (Tol.is_zero v) then begin
        row_idx.(!k) <- i;
        value.(!k) <- v;
        incr k
      end
    done
  done;
  { rows = r; cols = c; col_ptr; row_idx; value }

let to_dense m =
  let dense = Array.make_matrix m.rows m.cols 0.0 in
  for j = 0 to m.cols - 1 do
    for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
      dense.(m.row_idx.(k)).(j) <- m.value.(k)
    done
  done;
  dense

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Csc.get";
  let lo = ref m.col_ptr.(j) and hi = ref (m.col_ptr.(j + 1) - 1) in
  let found = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = m.row_idx.(mid) in
    if r = i then begin
      found := m.value.(mid);
      lo := !hi + 1
    end
    else if r < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_col m j f =
  if j < 0 || j >= m.cols then invalid_arg "Csc.iter_col";
  for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
    f m.row_idx.(k) m.value.(k)
  done

let mult_vec m x =
  if Array.length x <> m.cols then invalid_arg "Csc.mult_vec";
  let y = Array.make m.rows 0.0 in
  for j = 0 to m.cols - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
        let i = m.row_idx.(k) in
        y.(i) <- y.(i) +. (m.value.(k) *. xj)
      done
  done;
  y

let col_dot m j y =
  let acc = ref 0.0 in
  for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
    acc := !acc +. (m.value.(k) *. y.(m.row_idx.(k)))
  done;
  !acc

let mult_trans_vec m y =
  if Array.length y <> m.rows then invalid_arg "Csc.mult_trans_vec";
  Array.init m.cols (fun j -> col_dot m j y)

(* Counting transpose.  [col_ptr] doubles as the fill cursor: after the
   scatter, slot [i] holds the end of column [i], and one shift restores
   the starts.  Columns of [m] are visited in order, so rows stay sorted
   within every column of the result. *)
let transpose_into m ~col_ptr ~row_idx ~value =
  let n = nnz m and rows = m.cols and cols = m.rows in
  if
    Array.length col_ptr < cols + 1
    || Array.length row_idx < n
    || Array.length value < n
  then invalid_arg "Csc.transpose_into: buffer too short";
  Array.fill col_ptr 0 (cols + 1) 0;
  for k = 0 to n - 1 do
    let i = m.row_idx.(k) in
    col_ptr.(i + 1) <- col_ptr.(i + 1) + 1
  done;
  for i = 1 to cols do
    col_ptr.(i) <- col_ptr.(i) + col_ptr.(i - 1)
  done;
  for j = 0 to rows - 1 do
    for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
      let i = m.row_idx.(k) in
      let q = col_ptr.(i) in
      row_idx.(q) <- j;
      value.(q) <- m.value.(k);
      col_ptr.(i) <- q + 1
    done
  done;
  for i = cols downto 1 do
    col_ptr.(i) <- col_ptr.(i - 1)
  done;
  col_ptr.(0) <- 0

let transpose m =
  let n = nnz m in
  let col_ptr = Array.make (m.rows + 1) 0 in
  let row_idx = Array.make n 0 and value = Array.create_float n in
  transpose_into m ~col_ptr ~row_idx ~value;
  { rows = m.cols; cols = m.rows; col_ptr; row_idx; value }
