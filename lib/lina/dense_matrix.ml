type t = { m : int; n : int; data : float array }

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Dense_matrix.create";
  { m = rows; n = cols; data = Array.make (rows * cols) 0.0 }

let of_rows rows_arr =
  let m = Array.length rows_arr in
  let n = if m = 0 then 0 else Array.length rows_arr.(0) in
  let a = create ~rows:m ~cols:n in
  Array.iteri
    (fun i row ->
      if Array.length row <> n then invalid_arg "Dense_matrix.of_rows: ragged";
      Array.blit row 0 a.data (i * n) n)
    rows_arr;
  a

let copy a = { a with data = Array.copy a.data }
let rows a = a.m
let cols a = a.n
let get a i j = a.data.((i * a.n) + j)
let set a i j v = a.data.((i * a.n) + j) <- v

let mult_vec a x =
  if Array.length x <> a.n then invalid_arg "Dense_matrix.mult_vec";
  Array.init a.m (fun i ->
      let base = i * a.n in
      let acc = ref 0.0 in
      for j = 0 to a.n - 1 do
        acc := !acc +. (a.data.(base + j) *. x.(j))
      done;
      !acc)

let swap_rows a i j =
  if i <> j then
    for k = 0 to a.n - 1 do
      let t = a.data.((i * a.n) + k) in
      a.data.((i * a.n) + k) <- a.data.((j * a.n) + k);
      a.data.((j * a.n) + k) <- t
    done

let raw a = a.data

let col_axpy a j f w =
  if f <> 0.0 then
    for i = 0 to a.m - 1 do
      w.(i) <- w.(i) +. (f *. a.data.((i * a.n) + j))
    done

let pivot_update binv d r =
  let m = binv.m in
  if Array.length d <> m then invalid_arg "Dense_matrix.pivot_update: dim";
  let piv = d.(r) in
  if Float.abs piv < Tol.pivot then
    invalid_arg "Dense_matrix.pivot_update: pivot too small";
  let n = binv.n and data = binv.data in
  let s = 1.0 /. piv and br = r * n in
  for k = 0 to n - 1 do
    data.(br + k) <- s *. data.(br + k)
  done;
  for i = 0 to m - 1 do
    if i <> r && d.(i) <> 0.0 then begin
      let f = -.d.(i) and bi = i * n in
      for k = 0 to n - 1 do
        data.(bi + k) <- data.(bi + k) +. (f *. data.(br + k))
      done
    end
  done
