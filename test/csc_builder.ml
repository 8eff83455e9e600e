(* The triplet accumulator the library assembled its matrices with
   before every assembler wrote CSC arrays in final order, kept as the
   oracle those assemblers are compared against bit for bit.

   [finish] sums duplicate (row, col) entries left to right starting
   from the most recently added one ([((v_n +. v_(n-1)) +. ...) +. v_1]),
   drops a sum that [Lina.Tol.is_zero] accepts, and lists rows ascending
   within each column. *)

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
  if rows < 0 || cols < 0 then invalid_arg "Csc_builder.create";
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
    invalid_arg "Csc_builder.add: index out of bounds";
  let k = b.count in
  if k land (chunk - 1) = 0 then new_chunk b;
  let c = k lsr chunk_bits and o = k land (chunk - 1) in
  b.c_row.(c).(o) <- row;
  b.c_col.(c).(o) <- col;
  b.c_val.(c).(o) <- v;
  b.count <- k + 1

let int_at (chunks : int array array) k =
  chunks.(k lsr chunk_bits).(k land (chunk - 1))

let float_at (chunks : float array array) k =
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
      if not (Lina.Tol.is_zero !v) then begin
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
  Lina.Csc.of_arrays ~rows ~cols ~col_ptr ~row_idx ~value
