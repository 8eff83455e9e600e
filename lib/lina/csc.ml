type t = {
  rows : int;
  cols : int;
  col_ptr : int array;
  row_idx : int array;
  value : float array;
}

module Builder = struct
  (* Triplets are kept in insertion order in fixed-size chunks.  A chunk
     is small enough for the minor heap and growth never copies; flat
     doubling arrays would go straight to the major heap and raise the
     peak heap size. *)
  let chunk_bits = 8
  let chunk = 1 lsl chunk_bits

  type b = {
    b_rows : int;
    b_cols : int;
    mutable c_row : int array array;
    mutable c_col : int array array;
    mutable c_val : float array array;
    mutable count : int;
  }

  let create ~rows ~cols =
    if rows < 0 || cols < 0 then invalid_arg "Csc.Builder.create";
    { b_rows = rows; b_cols = cols; c_row = [||]; c_col = [||];
      c_val = [||]; count = 0 }

  let new_chunk b =
    let c = b.count lsr chunk_bits in
    if c = Array.length b.c_row then begin
      let extend dir = Array.append dir (Array.make (max 4 c) [||]) in
      b.c_row <- extend b.c_row;
      b.c_col <- extend b.c_col;
      b.c_val <- extend b.c_val
    end;
    b.c_row.(c) <- Array.make chunk 0;
    b.c_col.(c) <- Array.make chunk 0;
    b.c_val.(c) <- Array.create_float chunk

  let add b ~row ~col v =
    if row < 0 || row >= b.b_rows || col < 0 || col >= b.b_cols then
      invalid_arg "Csc.Builder.add: index out of bounds";
    let k = b.count in
    if k land (chunk - 1) = 0 then new_chunk b;
    let c = k lsr chunk_bits and o = k land (chunk - 1) in
    b.c_row.(c).(o) <- row;
    b.c_col.(c).(o) <- col;
    b.c_val.(c).(o) <- v;
    b.count <- k + 1

  let[@inline] int_at (chunks : int array array) k =
    chunks.(k lsr chunk_bits).(k land (chunk - 1))

  let[@inline] float_at (chunks : float array array) k =
    chunks.(k lsr chunk_bits).(k land (chunk - 1))

  (* Two stable counting sorts: by row over the triplets newest first,
     then by column.  Entries end up ordered by (column, row) with equal
     positions newest first, so duplicates sum in that order. *)
  let finish b =
    let n = b.count and rows = b.b_rows and cols = b.b_cols in
    let c_row = b.c_row and c_col = b.c_col and c_val = b.c_val in
    let next = Array.make (max rows cols + 1) 0 in
    for k = 0 to n - 1 do
      let r = int_at c_row k in
      next.(r + 1) <- next.(r + 1) + 1
    done;
    for r = 1 to rows do
      next.(r) <- next.(r) + next.(r - 1)
    done;
    let by_row = Array.make n 0 in
    for k = n - 1 downto 0 do
      let r = int_at c_row k in
      by_row.(next.(r)) <- k;
      next.(r) <- next.(r) + 1
    done;
    let col_ptr = Array.make (cols + 1) 0 in
    for k = 0 to n - 1 do
      let c = int_at c_col k in
      col_ptr.(c + 1) <- col_ptr.(c + 1) + 1
    done;
    for c = 1 to cols do
      col_ptr.(c) <- col_ptr.(c) + col_ptr.(c - 1)
    done;
    Array.blit col_ptr 0 next 0 cols;
    let row_idx = Array.make n 0 and value = Array.create_float n in
    for p = 0 to n - 1 do
      let k = by_row.(p) in
      let c = int_at c_col k in
      let q = next.(c) in
      row_idx.(q) <- int_at c_row k;
      value.(q) <- float_at c_val k;
      next.(c) <- q + 1
    done;
    (* Merge duplicates left to right and drop entries that cancel to
       zero, compacting in place. *)
    let out = ref 0 in
    for c = 0 to cols - 1 do
      let k = ref col_ptr.(c) and stop = col_ptr.(c + 1) in
      col_ptr.(c) <- !out;
      while !k < stop do
        let r = row_idx.(!k) in
        let v = ref value.(!k) in
        incr k;
        while !k < stop && row_idx.(!k) = r do
          v := !v +. value.(!k);
          incr k
        done;
        if not (Tol.is_zero !v) then begin
          row_idx.(!out) <- r;
          value.(!out) <- !v;
          incr out
        end
      done
    done;
    col_ptr.(cols) <- !out;
    let nnz = !out in
    let row_idx = if nnz = n then row_idx else Array.sub row_idx 0 nnz in
    let value = if nnz = n then value else Array.sub value 0 nnz in
    { rows; cols; col_ptr; row_idx; value }
end

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

let of_dense dense =
  let r = Array.length dense in
  let c = if r = 0 then 0 else Array.length dense.(0) in
  let b = Builder.create ~rows:r ~cols:c in
  Array.iteri
    (fun i row ->
      if Array.length row <> c then invalid_arg "Csc.of_dense: ragged matrix";
      Array.iteri
        (fun j v -> if not (Tol.is_zero v) then Builder.add b ~row:i ~col:j v)
        row)
    dense;
  Builder.finish b

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
