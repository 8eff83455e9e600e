(* Unit and property tests for the dense/sparse linear algebra layer. *)

let feq = Alcotest.(check (float 1e-9))

let csc_tests =
  [
    Alcotest.test_case "builder roundtrip" `Quick (fun () ->
        let dense = [| [| 1.; 0.; 2. |]; [| 0.; 3.; 0. |] |] in
        let m = Lina.Csc.of_dense dense in
        Alcotest.(check int) "nnz" 3 (Lina.Csc.nnz m);
        let back = Lina.Csc.to_dense m in
        Alcotest.(check bool) "roundtrip" true (back = dense));
    Alcotest.test_case "duplicate entries summed" `Quick (fun () ->
        let b = Csc_builder.create ~rows:2 ~cols:2 in
        Csc_builder.add b ~row:0 ~col:1 1.5;
        Csc_builder.add b ~row:0 ~col:1 2.5;
        let m = Csc_builder.finish b in
        feq "summed" 4.0 (Lina.Csc.get m 0 1));
    Alcotest.test_case "cancelling entries dropped" `Quick (fun () ->
        let b = Csc_builder.create ~rows:1 ~cols:1 in
        Csc_builder.add b ~row:0 ~col:0 1.0;
        Csc_builder.add b ~row:0 ~col:0 (-1.0);
        let m = Csc_builder.finish b in
        Alcotest.(check int) "nnz" 0 (Lina.Csc.nnz m));
    Alcotest.test_case "mult_vec / mult_trans_vec" `Quick (fun () ->
        let m = Lina.Csc.of_dense [| [| 1.; 2. |]; [| 3.; 4. |] |] in
        let y = Lina.Csc.mult_vec m [| 1.; 1. |] in
        feq "row0" 3.0 y.(0);
        feq "row1" 7.0 y.(1);
        let z = Lina.Csc.mult_trans_vec m [| 1.; 1. |] in
        feq "col0" 4.0 z.(0);
        feq "col1" 6.0 z.(1));
    Alcotest.test_case "transpose" `Quick (fun () ->
        let m = Lina.Csc.of_dense [| [| 1.; 2. |]; [| 0.; 4. |] |] in
        let t = Lina.Csc.transpose m in
        feq "t(1,0)" 2.0 (Lina.Csc.get t 1 0);
        feq "t(0,1)" 0.0 (Lina.Csc.get t 0 1));
    Alcotest.test_case "out of bounds rejected" `Quick (fun () ->
        let b = Csc_builder.create ~rows:1 ~cols:1 in
        Alcotest.check_raises "bad row"
          (Invalid_argument "Csc_builder.add: index out of bounds") (fun () ->
            Csc_builder.add b ~row:1 ~col:0 1.0));
    Alcotest.test_case "of_arrays checks the CSC invariants" `Quick (fun () ->
        let make col_ptr row_idx value =
          Lina.Csc.of_arrays ~rows:3 ~cols:2 ~col_ptr ~row_idx ~value
        in
        let m = make [| 0; 2; 3 |] [| 0; 2; 1 |] [| 1.0; -2.0; 3.0 |] in
        feq "(2,0)" (-2.0) (Lina.Csc.get m 2 0);
        feq "(1,1)" 3.0 (Lina.Csc.get m 1 1);
        List.iter
          (fun (name, col_ptr, row_idx, value) ->
            Alcotest.check_raises name (Invalid_argument "Csc.of_arrays")
              (fun () -> ignore (make col_ptr row_idx value : Lina.Csc.t)))
          [
            ("descending rows", [| 0; 2; 3 |], [| 2; 0; 1 |], [| 1.0; 2.0; 3.0 |]);
            ("repeated row", [| 0; 2; 3 |], [| 1; 1; 1 |], [| 1.0; 2.0; 3.0 |]);
            ("row out of range", [| 0; 1; 3 |], [| 0; 1; 3 |], [| 1.0; 2.0; 3.0 |]);
            ("stored zero", [| 0; 1; 3 |], [| 0; 1; 2 |], [| 1.0; 0.0; 3.0 |]);
            ("pointers past the entries", [| 0; 2; 4 |], [| 0; 1; 2 |], [| 1.0; 2.0; 3.0 |]);
            ("pointers out of order", [| 0; 3; 2 |], [| 0; 1; 2 |], [| 1.0; 2.0; 3.0 |]);
            ("value length", [| 0; 1; 3 |], [| 0; 1; 2 |], [| 1.0; 2.0 |]);
          ]);
  ]

(* Oracle: the list-and-sort triplet assembly the counting-sort builder
   replaced, kept verbatim apart from taking its triplets as an
   insertion-ordered list.  Returns [(col_ptr, row_idx, value)]. *)
let oracle_finish ~cols triplets =
  let entries = List.rev_map (fun (r, c, v) -> (c, r, v)) triplets in
  let sorted =
    List.sort
      (fun (c1, r1, _) (c2, r2, _) ->
        match compare c1 c2 with 0 -> compare r1 r2 | c -> c)
      entries
  in
  let rec merge acc = function
    | [] -> List.rev acc
    | (c, r, v) :: rest ->
      let rec take v = function
        | (c', r', w) :: tl when c' = c && r' = r -> take (v +. w) tl
        | tl -> (v, tl)
      in
      let v, rest = take v rest in
      if Lina.Tol.is_zero v then merge acc rest else merge ((c, r, v) :: acc) rest
  in
  let merged = merge [] sorted in
  let nnz = List.length merged in
  let col_ptr = Array.make (cols + 1) 0 in
  let row_idx = Array.make nnz 0 in
  let value = Array.make nnz 0.0 in
  List.iteri
    (fun k (c, r, v) ->
      row_idx.(k) <- r;
      value.(k) <- v;
      col_ptr.(c + 1) <- col_ptr.(c + 1) + 1)
    merged;
  for c = 1 to cols do
    col_ptr.(c) <- col_ptr.(c) + col_ptr.(c - 1)
  done;
  (col_ptr, row_idx, value)

let build ~rows ~cols triplets =
  let b = Csc_builder.create ~rows ~cols in
  List.iter (fun (r, c, v) -> Csc_builder.add b ~row:r ~col:c v) triplets;
  Csc_builder.finish b

(* Structural equality with floats compared bit for bit. *)
let same_csc (m : Lina.Csc.t) (col_ptr, row_idx, value) =
  m.Lina.Csc.col_ptr = col_ptr
  && m.Lina.Csc.row_idx = row_idx
  && Array.map Int64.bits_of_float m.Lina.Csc.value
     = Array.map Int64.bits_of_float value

(* A triplet stream over a small (possibly empty) shape whose entries
   collide often: duplicates that only sum to the same bits in one order,
   exact cancellations, sub-tolerance residues and untouched rows and
   columns.  Every fourth stream is long enough to span several of the
   builder's storage chunks. *)
let random_triplets seed =
  let rng = Workload.Rng.create (Int64.of_int (seed + 101)) in
  let rows = Workload.Rng.int rng 7 and cols = Workload.Rng.int rng 7 in
  let n =
    if rows = 0 || cols = 0 then 0
    else if Workload.Rng.int rng 4 = 0 then Workload.Rng.int rng 1500
    else Workload.Rng.int rng 60
  in
  let values = [| 0.1; 0.2; 0.3; -0.3; 1e-10; -1e-10; 3e-10; 1.0; -1.0 |] in
  let acc = ref [] in
  for _ = 1 to n do
    let r = Workload.Rng.int rng rows and c = Workload.Rng.int rng cols in
    match Workload.Rng.int rng 4 with
    | 0 -> acc := (r, c, Workload.Rng.float_range rng (-5.0) 5.0) :: !acc
    | 1 ->
      let v = Workload.Rng.float_range rng (-5.0) 5.0 in
      acc := (r, c, -.v) :: (r, c, v) :: !acc
    | _ -> acc := (r, c, Workload.Rng.pick rng values) :: !acc
  done;
  (rows, cols, List.rev !acc)

let csc_properties =
  let oracle_transpose (m : Lina.Csc.t) =
    let acc = ref [] in
    for j = 0 to Lina.Csc.cols m - 1 do
      Lina.Csc.iter_col m j (fun i v -> acc := (j, i, v) :: !acc)
    done;
    oracle_finish ~cols:(Lina.Csc.rows m) (List.rev !acc)
  in
  [
    Seeded.to_alcotest ~seed:20141
      (QCheck2.Test.make ~name:"builder matches the list-and-sort oracle"
         ~count:400 QCheck2.Gen.(int_bound 1_000_000)
         (fun seed ->
           let rows, cols, triplets = random_triplets seed in
           let m = build ~rows ~cols triplets in
           Lina.Csc.rows m = rows && Lina.Csc.cols m = cols
           && same_csc m (oracle_finish ~cols triplets)));
    Seeded.to_alcotest ~seed:20141
      (QCheck2.Test.make
         ~name:"transpose matches the oracle and is an involution" ~count:400
         QCheck2.Gen.(int_bound 1_000_000)
         (fun seed ->
           let rows, cols, triplets = random_triplets seed in
           let m = build ~rows ~cols triplets in
           let t = Lina.Csc.transpose m in
           let tt = Lina.Csc.transpose t in
           Lina.Csc.rows t = cols && Lina.Csc.cols t = rows
           && same_csc t (oracle_transpose m)
           && Lina.Csc.rows tt = rows && Lina.Csc.cols tt = cols
           && same_csc tt (m.Lina.Csc.col_ptr, m.Lina.Csc.row_idx,
                           m.Lina.Csc.value)));
  ]

let csc_alloc_tests =
  [
    Alcotest.test_case "transpose allocates only its result" `Quick (fun () ->
        let rng = Workload.Rng.create 7L in
        let rows = 300 and cols = 500 in
        let b = Csc_builder.create ~rows ~cols in
        for _ = 1 to 4000 do
          Csc_builder.add b ~row:(Workload.Rng.int rng rows)
            ~col:(Workload.Rng.int rng cols)
            (Workload.Rng.float_range rng 1.0 2.0)
        done;
        let m = Csc_builder.finish b in
        let words =
          Gc_probe.allocated_words (fun () -> ignore (Lina.Csc.transpose m : Lina.Csc.t))
        in
        let limit = (2 * Lina.Csc.nnz m) + rows + cols + 16 in
        if words > float_of_int limit then
          Alcotest.failf "transpose allocated %.0f words (limit %d)" words limit);
  ]

let random_matrix rng n =
  Array.init n (fun _ ->
      Array.init n (fun _ -> Workload.Rng.float_range rng (-5.0) 5.0))

(* The dense LU oracle ([Dense_lu]) the basis tests check against. *)
let lu_tests =
  [
    Alcotest.test_case "solve known system" `Quick (fun () ->
        (* [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4] *)
        let f = Dense_lu.factorize [| [| 2.; 1. |]; [| 1.; 3. |] |] in
        let x = Dense_lu.solve f [| 3.; 5. |] in
        feq "x0" 0.8 x.(0);
        feq "x1" 1.4 x.(1));
    Alcotest.test_case "singular detection" `Quick (fun () ->
        match Dense_lu.factorize [| [| 1.; 2. |]; [| 2.; 4. |] |] with
        | exception Lina.Lu.Singular _ -> ()
        | _ -> Alcotest.fail "expected Singular");
  ]

(* Max-norm of [a x - b]. *)
let residual a x b =
  let r = ref 0.0 in
  Array.iteri
    (fun i row ->
      let ax = ref 0.0 in
      Array.iteri (fun j v -> ax := !ax +. (v *. x.(j))) row;
      r := Float.max !r (Float.abs (!ax -. b.(i))))
    a;
  !r

let lu_properties =
  [
    Seeded.to_alcotest ~seed:1201
      (QCheck2.Test.make ~name:"LU solve residual is tiny" ~count:50
         QCheck2.Gen.(pair (int_range 1 12) (int_bound 10_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 1)) in
           let a = random_matrix rng n in
           let b = Array.init n (fun _ -> Workload.Rng.float_range rng (-3.0) 3.0) in
           match Dense_lu.factorize a with
           | exception Lina.Lu.Singular _ -> QCheck2.assume_fail ()
           | f -> residual a (Dense_lu.solve f b) b < 1e-6));
  ]

(* --- reach-based sparse triangular solves ------------------------------ *)

(* A sparse, diagonally dominant column accessor: always factorizable and
   sparse enough that the reach path actually runs below the density
   threshold. *)
let random_sparse_cols rng n =
  Array.init n (fun j ->
      let entries = ref [ (j, Workload.Rng.float_range rng 3.0 8.0) ] in
      for _ = 1 to Workload.Rng.int rng 3 do
        let i = Workload.Rng.int rng n in
        if i <> j && not (List.mem_assoc i !entries) then
          entries := (i, Workload.Rng.float_range rng (-1.0) 1.0) :: !entries
      done;
      !entries)

(* The reach solve against its dense-scan fallback on the same fresh
   Forrest–Tomlin factors.  In the case names below, [ftran_reach] is
   the reach path of [ft_ftran] and [ftran] its dense-scan pass
   ([ft_ftran_dense]); likewise for BTRAN. *)
let reach_agrees ~trans ft scratch n b =
  let dense = Array.copy b and sparse = Array.copy b in
  let module Slu = Lina.Lu.Sparse in
  let billed =
    if trans then begin
      ignore (Slu.ft_btran_dense ft scratch dense : int);
      Slu.ft_btran ft scratch sparse
    end
    else begin
      ignore (Slu.ft_ftran_dense ft scratch dense : int);
      Slu.ft_ftran ft scratch sparse
    end
  in
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 dense
  in
  billed >= n
  && Array.for_all2
       (fun a b -> Float.abs (a -. b) <= 1e-9 *. scale)
       dense sparse

let reach_properties =
  let make_case ~name ~trans ~rhs_of =
    Seeded.to_alcotest ~seed:1301
      (QCheck2.Test.make ~name ~count:60
         QCheck2.Gen.(pair (int_range 1 40) (int_bound 100_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 13)) in
           let cols = random_sparse_cols rng n in
           let ft =
             Lina.Lu.Sparse.factorize ~n ~col:(fun j emit ->
                 List.iter (fun (i, v) -> emit i v) cols.(j))
           in
           let scratch = Lina.Lu.Sparse.scratch n in
           (* Several solves through one scratch: a kernel that fails to
              reset its workspace poisons the next call. *)
           List.for_all
             (fun k -> reach_agrees ~trans ft scratch n (rhs_of rng n k))
             [ 0; 1; 2 ]))
  in
  let sparse_rhs rng n _ =
    Array.init n (fun _ ->
        if Workload.Rng.int rng 4 = 0 then
          Workload.Rng.float_range rng (-3.0) 3.0
        else 0.0)
  in
  let dense_rhs rng n _ =
    Array.init n (fun _ -> Workload.Rng.float_range rng (-3.0) 3.0)
  in
  let unit_rhs rng n k =
    let b = Array.make n 0.0 in
    ignore k;
    b.(Workload.Rng.int rng n) <- Workload.Rng.float_range rng 0.5 2.0;
    b
  in
  let zero_rhs _ n _ = Array.make n 0.0 in
  [
    make_case ~name:"ftran_reach = ftran (sparse rhs)" ~trans:false
      ~rhs_of:sparse_rhs;
    make_case ~name:"btran_reach = btran (sparse rhs)" ~trans:true
      ~rhs_of:sparse_rhs;
    make_case ~name:"ftran_reach = ftran (dense rhs fallback)" ~trans:false
      ~rhs_of:dense_rhs;
    make_case ~name:"btran_reach = btran (dense rhs fallback)" ~trans:true
      ~rhs_of:dense_rhs;
    make_case ~name:"ftran_reach single-nonzero rhs" ~trans:false
      ~rhs_of:unit_rhs;
    make_case ~name:"btran_reach single-nonzero rhs" ~trans:true
      ~rhs_of:unit_rhs;
    make_case ~name:"ftran_reach all-zero rhs" ~trans:false ~rhs_of:zero_rhs;
    make_case ~name:"btran_reach all-zero rhs" ~trans:true ~rhs_of:zero_rhs;
  ]

(* --- Forrest–Tomlin updatable factors ---------------------------------- *)

module Slu = Lina.Lu.Sparse

let factorize_cols n cols =
  Slu.factorize ~n ~col:(fun j emit ->
      List.iter (fun (i, v) -> emit i v) cols.(j))

(* The basis [basic] of the columns of [a], factorized into new factors
   through scratch [s] — the simplex's refactorization path. *)
let factors_of s a basic =
  let f = Slu.ft_create (Array.length basic) in
  Slu.ft_factorize f s a ~unit_sign:[||] basic;
  f

(* [cols] as a CSC matrix (no duplicate entries). *)
let csc_of_cols n cols =
  let b = Csc_builder.create ~rows:n ~cols:n in
  Array.iteri
    (fun j entries ->
      List.iter (fun (i, v) -> Csc_builder.add b ~row:i ~col:j v) entries)
    cols;
  Csc_builder.finish b

(* A replacement column with a dominant entry on row [r]: keeps the basis
   diagonally dominant, so the updated diagonal stays healthy and the
   update is accepted. *)
let replacement_col rng n r =
  let entries = ref [ (r, Workload.Rng.float_range rng 3.0 8.0) ] in
  for _ = 1 to Workload.Rng.int rng 3 do
    let i = Workload.Rng.int rng n in
    if i <> r && not (List.mem_assoc i !entries) then
      entries := (i, Workload.Rng.float_range rng (-1.0) 1.0) :: !entries
  done;
  !entries

let close_to a b =
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1.0 b
  in
  Array.for_all2 (fun u v -> Float.abs (u -. v) <= 1e-8 *. scale) a b

(* N successive updates through one [ft], each checked against a fresh
   factorization of the mutated basis: ftran and btran must agree on
   random (sparse and dense) right-hand sides. *)
let ft_agrees_with_fresh rng n updates =
  let cols = random_sparse_cols rng n in
  let ft = factorize_cols n cols in
  let scratch = Slu.scratch n in
  let ok = ref true in
  for _ = 1 to updates do
    if !ok then begin
      let r = Workload.Rng.int rng n in
      let entries = replacement_col rng n r in
      cols.(r) <- entries;
      let w = Array.make n 0.0 in
      List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) entries;
      ignore (Slu.ft_ftran ft scratch w : int);
      if not (Slu.ft_update ft scratch ~r) then ok := false
      else begin
        if Slu.ft_update_work ft <= 0 || Slu.ft_update_added ft < 0 then
          ok := false
        else begin
          let fresh = factorize_cols n cols in
          let fscr = Slu.scratch n in
          let b =
            Array.init n (fun _ ->
                if Workload.Rng.int rng 3 = 0 then
                  Workload.Rng.float_range rng (-2.0) 2.0
                else 0.0)
          in
          let x_ft = Array.copy b and x_fr = Array.copy b in
          ignore (Slu.ft_ftran ft scratch x_ft : int);
          ignore (Slu.ft_ftran fresh fscr x_fr : int);
          let c =
            Array.init n (fun _ -> Workload.Rng.float_range rng (-2.0) 2.0)
          in
          let y_ft = Array.copy c and y_fr = Array.copy c in
          ignore (Slu.ft_btran ft scratch y_ft : int);
          ignore (Slu.ft_btran fresh fscr y_fr : int);
          if not (close_to x_ft x_fr && close_to y_ft y_fr) then ok := false
        end
      end
    end
  done;
  (* The fill ratio can legitimately dip below 1: a replacement column
     sparser than the one it evicts shrinks U. *)
  !ok && Slu.ft_updates ft = updates && Slu.ft_fill_ratio ft > 0.0

let ft_properties =
  [
    Seeded.to_alcotest ~seed:1401
      (QCheck2.Test.make
         ~name:"N Forrest–Tomlin updates agree with fresh refactorization"
         ~count:40
         QCheck2.Gen.(pair (int_range 2 30) (int_bound 100_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 29)) in
           let updates = 1 + Workload.Rng.int rng (min 20 (2 * n)) in
           ft_agrees_with_fresh rng n updates));
    Seeded.to_alcotest ~seed:1402
      (QCheck2.Test.make
         ~name:"random pivot sequences keep ft_nnz = solve cost coherent"
         ~count:30
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 71)) in
           let n = 3 + Workload.Rng.int rng 20 in
           let cols = random_sparse_cols rng n in
           let ft = factorize_cols n cols in
           let scratch = Slu.scratch n in
           let nnz0 = Slu.ft_nnz ft in
           let ok = ref (nnz0 > 0 && Slu.ft_eta_nnz ft = 0) in
           for _ = 1 to 12 do
             if !ok then begin
               let r = Workload.Rng.int rng n in
               let entries = replacement_col rng n r in
               cols.(r) <- entries;
               let w = Array.make n 0.0 in
               List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) entries;
               ignore (Slu.ft_ftran ft scratch w : int);
               if not (Slu.ft_update ft scratch ~r) then ok := false
               else begin
                 (* The billed solve work is bounded by the advertised
                    solve cost (ft_nnz plus the O(n) permute passes). *)
                 let b =
                   Array.init n (fun _ ->
                       Workload.Rng.float_range rng (-2.0) 2.0)
                 in
                 let billed = Slu.ft_ftran ft scratch b in
                 if billed <= 0 || billed > Slu.ft_nnz ft + (4 * n) then
                   ok := false
               end
             end
           done;
           !ok));
  ]

(* More than 2n updates on one factorization, none rejected and no
   refactorization in between, so the triangular order of U is rebuilt
   many times over.  After each update: the work it returned, then FTRAN
   and BTRAN of a sparse and a dense right-hand side, each by the reach
   (or dense) path that [ft_ftran]/[ft_btran] choose and by the dense-scan
   passes, with their work.  The digest of all of it was recorded before
   the triangular order became append-only. *)
let long_update_digest () =
  let b = Buffer.create 65536 in
  let bits x =
    Array.iter
      (fun v ->
        Buffer.add_string b (Int64.to_string (Int64.bits_of_float v));
        Buffer.add_char b ',')
      x
  in
  let int k = Buffer.add_string b (string_of_int k ^ ";") in
  let total = ref 0 in
  for case = 0 to 15 do
    let rng = Workload.Rng.create (Int64.of_int (case + 503)) in
    let n = 2 + Workload.Rng.int rng 70 in
    let cols = random_sparse_cols rng n in
    let ft = factorize_cols n cols in
    let s = Slu.scratch n in
    let updates = (2 * n) + 1 + Workload.Rng.int rng n in
    let solve f rhs =
      let x = Array.copy rhs in
      int (f ft s x);
      bits x
    in
    (try
       for _ = 1 to updates do
         let r = Workload.Rng.int rng n in
         let w = Array.make n 0.0 in
         List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) (replacement_col rng n r);
         ignore (Slu.ft_ftran ft s w : int);
         if not (Slu.ft_update ft s ~r) then raise Exit;
         incr total;
         int (Slu.ft_update_work ft);
         let sparse =
           Array.init n (fun _ ->
               if Workload.Rng.int rng 8 = 0 then
                 Workload.Rng.float_range rng (-2.0) 2.0
               else 0.0)
         in
         let dense =
           Array.init n (fun _ -> Workload.Rng.float_range rng (-2.0) 2.0)
         in
         List.iter
           (fun rhs ->
             solve Slu.ft_ftran rhs;
             solve Slu.ft_ftran_dense rhs;
             solve Slu.ft_btran rhs;
             solve Slu.ft_btran_dense rhs)
           [ sparse; dense ]
       done
     with Exit -> Buffer.add_string b "rejected;");
    if Slu.ft_updates ft <= 2 * n then
      Alcotest.failf "case %d: %d updates for n = %d" case (Slu.ft_updates ft) n
  done;
  Printf.sprintf "updates=%d %s" !total (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- the support contract of the Forrest–Tomlin solves ----------------- *)

(* After a reach-path solve, the reported support lists every nonzero of
   the result exactly once, in ascending order (it may list cancelled
   zeros too); after a dense-path solve — an RHS above the density
   threshold — there is none.  On either path the solve's own count of
   the nonzeros it scattered out is the result's. *)
let support_holds s n ~rhs_nnz x =
  let k = Slu.support_len s in
  let nnz = Array.fold_left (fun c v -> if v <> 0.0 then c + 1 else c) 0 x in
  Slu.result_nnz s = nnz
  &&
  if float_of_int rhs_nnz > Slu.dense_threshold *. float_of_int n then k = -1
  else
    k >= 0
    && begin
         let sup = Slu.support s in
         let listed = Array.make n false in
         let ok = ref true in
         for t = 0 to k - 1 do
           if t > 0 && sup.(t - 1) >= sup.(t) then ok := false;
           if sup.(t) < 0 || sup.(t) >= n then ok := false
           else listed.(sup.(t)) <- true
         done;
         Array.iteri (fun i v -> if v <> 0.0 && not listed.(i) then ok := false) x;
         !ok
       end

(* FTRAN and BTRAN of [b] through [ft], each checked for the contract;
   [b] is not modified. *)
let solves_keep_contract ft s n b =
  let rhs_nnz = Array.fold_left (fun c v -> if v <> 0.0 then c + 1 else c) 0 b in
  let x = Array.copy b and y = Array.copy b in
  ignore (Slu.ft_ftran ft s x : int);
  let fok = support_holds s n ~rhs_nnz x in
  ignore (Slu.ft_btran ft s y : int);
  fok && support_holds s n ~rhs_nnz y

let contract_rhs rng n =
  let unit = Array.make n 0.0 in
  unit.(Workload.Rng.int rng n) <- 1.0;
  let sparse =
    Array.init n (fun _ ->
        if Workload.Rng.int rng 10 = 0 then Workload.Rng.float_range rng (-2.0) 2.0
        else 0.0)
  in
  let dense = Array.init n (fun _ -> Workload.Rng.float_range rng (-2.0) 2.0) in
  [ unit; sparse; dense; Array.make n 0.0 ]

(* A random sparse basis taken through [updates] Forrest–Tomlin updates,
   the contract checked on fresh factors and after every update.  Returns
   whether it held and the row-eta entries the updates left. *)
let support_through_updates rng n updates =
  let cols = random_sparse_cols rng n in
  let ft = factorize_cols n cols in
  let s = Slu.scratch n in
  let ok = ref (List.for_all (solves_keep_contract ft s n) (contract_rhs rng n)) in
  for _ = 1 to updates do
    if !ok then begin
      let r = Workload.Rng.int rng n in
      let entries = replacement_col rng n r in
      cols.(r) <- entries;
      let w = Array.make n 0.0 in
      List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) entries;
      ignore (Slu.ft_ftran ft s w : int);
      if not (Slu.ft_update ft s ~r) then ok := false
      else ok := List.for_all (solves_keep_contract ft s n) (contract_rhs rng n)
    end
  done;
  (!ok, Slu.ft_eta_nnz ft)

(* [sort_prefix] against a plain sort, on position sets that straddle
   32-bit word boundaries (31, 32, 63 and 64 are forced in), over
   dimensions that are mostly not multiples of 32, short lists and long,
   one scratch reused by every call. *)
let sort_prefix_property =
  let bits = Slu.bitmap 300 in
  Seeded.to_alcotest ~seed:1503
    (QCheck2.Test.make ~name:"sort_prefix sorts as List.sort" ~count:200
       QCheck2.Gen.(pair (int_range 1 300) (int_bound 100_000))
       (fun (n, seed) ->
         let rng = Workload.Rng.create (Int64.of_int (seed + 13)) in
         let take = Array.init n (fun _ -> Workload.Rng.int rng 3 = 0) in
         List.iter (fun i -> if i < n then take.(i) <- true) [ 31; 32; 63; 64 ];
         let set = List.filter (fun i -> take.(i)) (List.init n Fun.id) in
         let a = Array.of_list set in
         for i = Array.length a - 1 downto 1 do
           let k = Workload.Rng.int rng (i + 1) in
           let t = a.(i) in
           a.(i) <- a.(k);
           a.(k) <- t
         done;
         let len = Workload.Rng.int rng (Array.length a + 1) in
         let expect = List.sort compare (Array.to_list (Array.sub a 0 len)) in
         Slu.sort_prefix ~bits a len;
         Array.to_list (Array.sub a 0 len) = expect))

(* A solve whose reach is wide but whose values cancel: B = I plus a
   column 0 with a 1 on [rows] (positions 31, 32, 63 and 64 among them,
   n = 171).  FTRAN of e_0 + Σ e_rows gives 1 at 0 and exact zeros on
   [rows]; BTRAN of |rows|·e_0 + Σ e_rows gives 1 on [rows] and an exact
   zero at 0.  Each support is ascending, lists every nonzero, and lists
   nothing outside the reach. *)
let cancelled_support_test () =
  let n = 171 in
  let rows = [ 3; 17; 30; 31; 32; 33; 40; 62; 63; 64; 65; 90; 95; 96; 97;
               100; 120; 127; 128; 129; 150; 160; 169; 170 ] in
  let cols =
    Array.init n (fun j ->
        if j = 0 then (0, 1.0) :: List.map (fun i -> (i, 1.0)) rows
        else [ (j, 1.0) ])
  in
  let s = Slu.scratch n in
  let ft = factors_of s (csc_of_cols n cols) (Array.init n Fun.id) in
  let check name solve b =
    let rhs_nnz = Array.fold_left (fun c v -> if v <> 0.0 then c + 1 else c) 0 b in
    ignore (solve ft s b : int);
    if not (support_holds s n ~rhs_nnz b) then
      Alcotest.failf "%s breaks the support contract" name;
    let sup = Array.sub (Slu.support s) 0 (Slu.support_len s) in
    Array.iter
      (fun i ->
        if i <> 0 && not (List.mem i rows) then
          Alcotest.failf "%s lists %d outside the reach" name i)
      sup;
    b
  in
  let b = Array.make n 0.0 in
  b.(0) <- 1.0;
  List.iter (fun i -> b.(i) <- 1.0) rows;
  let x = check "FTRAN" Slu.ft_ftran b in
  Alcotest.(check bool) "FTRAN cancels on the rows" true
    (x.(0) = 1.0 && List.for_all (fun i -> x.(i) = 0.0) rows);
  let c = Array.make n 0.0 in
  c.(0) <- float_of_int (List.length rows);
  List.iter (fun i -> c.(i) <- 1.0) rows;
  let y = check "BTRAN" Slu.ft_btran c in
  Alcotest.(check bool) "BTRAN cancels at 0" true
    (y.(0) = 0.0 && List.for_all (fun i -> y.(i) = 1.0) rows)

let support_tests =
  [
    sort_prefix_property;
    Alcotest.test_case "supports of cancelling solves stay ordered" `Quick
      cancelled_support_test;
    Seeded.to_alcotest ~seed:1501
      (QCheck2.Test.make
         ~name:"reach solves report every nonzero once, ascending" ~count:60
         QCheck2.Gen.(pair (int_range 1 80) (int_bound 100_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 41)) in
           fst (support_through_updates rng n (Workload.Rng.int rng 12))));
    Alcotest.test_case "the contract holds across row etas" `Quick (fun () ->
        (* Forty seeded bases of 40 rows through 15 updates each: every
           one keeps the contract, and the row-eta file is exercised. *)
        let etas = ref 0 in
        for seed = 1 to 40 do
          let rng = Workload.Rng.create (Int64.of_int seed) in
          let ok, eta_nnz = support_through_updates rng 40 15 in
          if not ok then Alcotest.failf "seed %d breaks the support contract" seed;
          etas := !etas + eta_nnz
        done;
        Alcotest.(check bool) "updates recorded row etas" true (!etas > 0));
    Alcotest.test_case "the node-LP basis keeps the contract" `Quick (fun () ->
        let sf, basic = Bench_harness.Micro.node_basis () in
        let n = Array.length basic in
        let s = Slu.scratch n in
        let ft = factors_of s sf.Lp.Std_form.a basic in
        let rng = Workload.Rng.create 7L in
        for k = 0 to n - 1 do
          let e = Array.make n 0.0 in
          e.(k) <- 1.0;
          if not (solves_keep_contract ft s n e) then
            Alcotest.failf "unit vector %d breaks the support contract" k
        done;
        if not (List.for_all (solves_keep_contract ft s n) (contract_rhs rng n))
        then Alcotest.fail "a random right-hand side breaks the contract");
  ]

(* --- the roots-fed solves ------------------------------------------------ *)

(* Twin copies of one factorization, [a] driven through the gathering
   [ft_ftran]/[ft_btran] and [b] through [ft_ftran_roots]/
   [ft_btran_roots] handed the exact pattern of the right-hand side:
   result bits, returned work and reported support must agree.  Updates
   are applied to both, so a spike stashed in another order would show
   in the solves that follow. *)
type twin = { fa : Slu.ft; sa : Slu.scratch; fb : Slu.ft; sb : Slu.scratch }

let twin n factor =
  {
    fa = factor ();
    sa = Slu.scratch n;
    fb = factor ();
    sb = Slu.scratch n;
  }

let twin_solve ~trans t rhs roots first len =
  let x = Array.copy rhs and y = Array.copy rhs in
  let wa, wb =
    if trans then
      ( Slu.ft_btran t.fa t.sa x,
        Slu.ft_btran_roots t.fb t.sb y ~roots ~first ~len )
    else
      ( Slu.ft_ftran t.fa t.sa x,
        Slu.ft_ftran_roots t.fb t.sb y ~roots ~first ~len )
  in
  let sup s = Array.sub (Slu.support s) 0 (max 0 (Slu.support_len s)) in
  ( wa = wb
    && Slu.support_len t.sa = Slu.support_len t.sb
    && sup t.sa = sup t.sb
    && Array.for_all2
         (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
         x y,
    x )

(* The pattern of [b], ascending: what a caller hands the roots entries. *)
let pattern b =
  let l = ref [] in
  for i = Array.length b - 1 downto 0 do
    if b.(i) <> 0.0 then l := i :: !l
  done;
  Array.of_list !l

let twin_agrees ~trans t b =
  let roots = pattern b in
  fst (twin_solve ~trans t b roots 0 (Array.length roots))

(* Swaps the column [b] into slot [r] of both twins (FTRAN then update);
   [None] when the twins disagree, else whether the update was taken. *)
let twin_update t b r =
  let roots = pattern b in
  let same, _ = twin_solve ~trans:false t b roots 0 (Array.length roots) in
  let ua = Slu.ft_update t.fa t.sa ~r and ub = Slu.ft_update t.fb t.sb ~r in
  if same && ua = ub
     && ((not ua)
        || Slu.ft_update_work t.fa = Slu.ft_update_work t.fb
           && Slu.ft_update_added t.fa = Slu.ft_update_added t.fb)
  then Some ua
  else None

(* A random basis through [updates] Forrest–Tomlin updates; after each,
   the twins agree on unit, sparse, dense and zero right-hand sides, in
   both directions. *)
let roots_through_updates ~cols_of rng n updates =
  let cols = cols_of rng n in
  let t = twin n (fun () -> factorize_cols n cols) in
  (* Besides the contract's right-hand sides, one as crowded as the
     reach path takes: entries fed by three or more terms are where the
     seeding order of the roots would show in the bits. *)
  let crowded () =
    let b = Array.make n 0.0 in
    for _ = 1 to n / 4 do
      b.(Workload.Rng.int rng n) <- Workload.Rng.float_range rng (-2.0) 2.0
    done;
    b
  in
  let all_agree () =
    List.for_all
      (fun b -> twin_agrees ~trans:false t b && twin_agrees ~trans:true t b)
      (crowded () :: contract_rhs rng n)
  in
  let ok = ref (all_agree ()) in
  for _ = 1 to updates do
    if !ok then begin
      let r = Workload.Rng.int rng n in
      let entries = replacement_col rng n r in
      cols.(r) <- entries;
      let w = Array.make n 0.0 in
      List.iter (fun (i, v) -> w.(i) <- w.(i) +. v) entries;
      ok := twin_update t w r = Some true && all_agree ()
    end
  done;
  !ok

(* Columns with up to eight off-diagonal entries: L fills, so the reach
   of several roots overlaps and the order they seed it in decides the
   order in which entries accumulate their updates. *)
let fill_cols rng n =
  Array.init n (fun j ->
      let entries = ref [ (j, Workload.Rng.float_range rng 3.0 8.0) ] in
      for _ = 1 to Workload.Rng.int rng 9 do
        let i = Workload.Rng.int rng n in
        if i <> j && not (List.mem_assoc i !entries) then
          entries := (i, Workload.Rng.float_range rng (-1.0) 1.0) :: !entries
      done;
      !entries)

let roots_tests =
  let property ~seed ~name ~cols_of =
    Seeded.to_alcotest ~seed
      (QCheck2.Test.make ~name ~count:60
         QCheck2.Gen.(pair (int_range 1 60) (int_bound 100_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 53)) in
           roots_through_updates ~cols_of rng n (Workload.Rng.int rng 15)))
  in
  [
    property ~seed:1601 ~cols_of:random_sparse_cols
      ~name:"roots-fed solves equal the gathering ones after FT updates";
    property ~seed:1602 ~cols_of:fill_cols
      ~name:"... and on bases whose L fills";
    Alcotest.test_case
      "every column of A and every unit row on the node-LP basis" `Quick
      (fun () ->
        (* The simplex's two sparse solves — FTRAN of a column scattered
           from the CSC, whose row indices are the pattern, and BTRAN of
           a unit row — on the fresh factors, then again after pivots
           that bring columns of A into the basis. *)
        let sf, basic = Bench_harness.Micro.node_basis () in
        let n = Array.length basic in
        let a = sf.Lp.Std_form.a in
        let t =
          twin n (fun () -> factors_of (Slu.scratch n) a basic)
        in
        let column j =
          let b = Array.make n 0.0 in
          for e = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
            b.(a.Lina.Csc.row_idx.(e)) <- a.Lina.Csc.value.(e)
          done;
          b
        in
        let check_all tag =
          for j = 0 to Lina.Csc.cols a - 1 do
            let first = a.Lina.Csc.col_ptr.(j) in
            let len = a.Lina.Csc.col_ptr.(j + 1) - first in
            if
              not
                (fst
                   (twin_solve ~trans:false t (column j) a.Lina.Csc.row_idx
                      first len))
            then Alcotest.failf "%s: column %d, roots-fed FTRAN differs" tag j
          done;
          for r = 0 to n - 1 do
            let e = Array.make n 0.0 in
            e.(r) <- 1.0;
            if not (fst (twin_solve ~trans:true t e [| r |] 0 1)) then
              Alcotest.failf "%s: unit row %d, roots-fed BTRAN differs" tag r
          done
        in
        check_all "fresh factors";
        let rng = Workload.Rng.create 11L in
        let updates = ref 0 in
        while !updates < 25 do
          let j = Workload.Rng.int rng (Lina.Csc.cols a) in
          let b = column j in
          (* Leave at the entry of largest magnitude, as a ratio test
             would favour. *)
          let _, x =
            let roots = pattern b in
            twin_solve ~trans:false t b roots 0 (Array.length roots)
          in
          let r = ref 0 in
          Array.iteri
            (fun i v -> if Float.abs v > Float.abs x.(!r) then r := i)
            x;
          if Float.abs x.(!r) > 1e-3 then
            match twin_update t b !r with
            | None -> Alcotest.failf "pivot %d: the twins disagree" !updates
            | Some true -> incr updates
            | Some false -> Alcotest.fail "an update was rejected"
        done;
        check_all "after 25 updates");
  ]

let ft_tests =
  [
    Alcotest.test_case "singular spike is rejected and flags stale" `Quick
      (fun () ->
        let n = 4 in
        let cols =
          Array.init n (fun j -> [ (j, 2.0 +. float_of_int j) ])
        in
        let ft = factorize_cols n cols in
        let scratch = Slu.scratch n in
        (* Replacing column 2 with e_0 collides with column 0: the
           updated diagonal is exactly zero. *)
        let w = Array.make n 0.0 in
        w.(0) <- 1.0;
        ignore (Slu.ft_ftran ft scratch w : int);
        if Slu.ft_update ft scratch ~r:2 then
          Alcotest.fail "singular spike must be rejected";
        (* Stale factors refuse every operation until refreshed. *)
        let b = Array.make n 1.0 in
        (match Slu.ft_ftran ft scratch b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "stale ftran must raise");
        (match Slu.ft_btran ft scratch b with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "stale btran must raise");
        (* A sound refactorization in place re-arms the factors. *)
        Slu.ft_factorize ft scratch (csc_of_cols n cols) ~unit_sign:[||]
          (Array.init n Fun.id);
        let x = Array.make n 1.0 in
        ignore (Slu.ft_ftran ft scratch x : int);
        Array.iteri
          (fun i v ->
            Alcotest.(check (float 1e-9)) "refactorized solve"
              (1.0 /. (2.0 +. float_of_int i)) v)
          x;
        Alcotest.(check int) "updates reset by refactorization" 0
          (Slu.ft_updates ft));
    Alcotest.test_case "update without a stashed spike is rejected" `Quick
      (fun () ->
        let n = 3 in
        let cols = Array.init n (fun j -> [ (j, 1.0) ]) in
        let ft = factorize_cols n cols in
        let scratch = Slu.scratch n in
        match Slu.ft_update ft scratch ~r:0 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "update must require a stashed spike");
  ]

let singular_refactorization_test =
  Alcotest.test_case "a singular refactorization leaves the factors usable"
    `Quick (fun () ->
      (* Factors with two updates absorbed (so the row etas and the
         moved triangular order are part of what must survive), then a
         refactorization of a basis with a repeated column, which fails
         late in the elimination: FTRAN and BTRAN afterwards must be
         bitwise the solves before it. *)
      let n = 30 in
      let rng = Workload.Rng.create 5L in
      let cols = Array.init n (fun j -> replacement_col rng n j) in
      let ft = factorize_cols n cols in
      let scratch = Slu.scratch n in
      List.iter
        (fun r ->
          let w = Array.make n 0.0 in
          List.iter
            (fun (i, v) -> w.(i) <- w.(i) +. v)
            (replacement_col rng n r);
          ignore (Slu.ft_ftran ft scratch w : int);
          if not (Slu.ft_update ft scratch ~r) then
            Alcotest.fail "a dominant replacement was rejected")
        [ 4; 17 ];
      (* A dense right-hand side (the dense-scan passes) and every unit
         vector (the reach passes). *)
      let rhs =
        Array.init n (fun _ -> Workload.Rng.float_range rng (-3.0) 3.0)
        :: List.init n (fun k ->
               Array.init n (fun i -> if i = k then 1.0 else 0.0))
      in
      let solve r =
        let b = Array.copy r and c = Array.copy r in
        let wb = Slu.ft_ftran ft scratch b in
        let wc = Slu.ft_btran ft scratch c in
        let bits = Array.map Int64.bits_of_float in
        (bits b, bits c, wb, wc)
      in
      let solves () = (List.map solve rhs, Slu.ft_nnz ft, Slu.ft_updates ft) in
      let before = solves () in
      let twice = Array.copy cols in
      twice.(n - 1) <- cols.(0);
      (match
         Slu.ft_factorize ft scratch (csc_of_cols n twice) ~unit_sign:[||]
           (Array.init n Fun.id)
       with
      | () -> Alcotest.fail "a repeated column must be singular"
      | exception Lina.Lu.Singular k ->
        if k = 0 then Alcotest.fail "the elimination should fail late");
      if solves () <> before then
        Alcotest.fail "solves, work, nnz or updates changed")

(* --- sparse factorization against the column-scan oracle --------------- *)

(* Oracle: the left-looking factorization that probed every earlier factor
   column for each new one, and a comparison sort for the static column
   order, kept verbatim with the dense-scan solves it was checked with.
   The reach-based [Lina.Lu.Sparse.factorize] must reproduce its factors
   bit for bit, which the bitwise solve comparisons below pin down. *)
module Scan_lu = struct
  module Tol = Lina.Tol

  exception Singular = Lina.Lu.Singular

  type t = {
    n : int;
    l_ptr : int array;
    l_idx : int array;  (* factor-row indices, all > column *)
    l_val : float array;
    u_ptr : int array;
    u_idx : int array;  (* factor-row indices, all < column *)
    u_val : float array;
    u_diag : float array;
    p : int array;     (* factor row i came from original row p.(i) *)
    q : int array;     (* factor column j holds original column q.(j) *)
    pinv : int array;  (* original row r lives at factor row pinv.(r) *)
    qinv : int array;  (* original column c lives at factor col qinv.(c) *)
    lr_ptr : int array;  (* rows of L: lr row i lists columns j < i *)
    lr_idx : int array;
    lr_val : float array;
    ur_ptr : int array;  (* rows of U: ur row k lists columns j > k *)
    ur_idx : int array;
    ur_val : float array;
  }

  let nnz f = Array.length f.l_idx + Array.length f.u_idx + f.n

  let inverse_perm p =
    let n = Array.length p in
    let inv = Array.make n 0 in
    for i = 0 to n - 1 do
      inv.(p.(i)) <- i
    done;
    inv

  (* Row-compressed copy of a column-compressed factor (counting sort on
     the row index).  One pass per refactorization, O(nnz). *)
  let transpose_ccs n ptr idx value =
    let m = Array.length idx in
    let tptr = Array.make (n + 1) 0 in
    for e = 0 to m - 1 do
      tptr.(idx.(e) + 1) <- tptr.(idx.(e) + 1) + 1
    done;
    for i = 0 to n - 1 do
      tptr.(i + 1) <- tptr.(i + 1) + tptr.(i)
    done;
    let tidx = Array.make m 0 and tval = Array.make m 0.0 in
    let cursor = Array.copy tptr in
    for j = 0 to n - 1 do
      for e = ptr.(j) to ptr.(j + 1) - 1 do
        let i = idx.(e) in
        let at = cursor.(i) in
        tidx.(at) <- j;
        tval.(at) <- value.(e);
        cursor.(i) <- at + 1
      done
    done;
    (tptr, tidx, tval)

  (* Growable entry store for one factor. *)
  type grow = {
    mutable g_idx : int array;
    mutable g_val : float array;
    mutable g_len : int;
  }

  let grow_make () = { g_idx = Array.make 64 0; g_val = Array.make 64 0.0; g_len = 0 }

  let grow_push g i v =
    if g.g_len = Array.length g.g_idx then begin
      let cap = 2 * g.g_len in
      let idx = Array.make cap 0 and value = Array.make cap 0.0 in
      Array.blit g.g_idx 0 idx 0 g.g_len;
      Array.blit g.g_val 0 value 0 g.g_len;
      g.g_idx <- idx;
      g.g_val <- value
    end;
    g.g_idx.(g.g_len) <- i;
    g.g_val.(g.g_len) <- v;
    g.g_len <- g.g_len + 1

  let factorize ~n ~col =
    (* Static column order: ascending nonzero count, index as tie-break. *)
    let counts = Array.make n 0 in
    for j = 0 to n - 1 do
      col j (fun _ _ -> counts.(j) <- counts.(j) + 1)
    done;
    let q = Array.init n (fun j -> j) in
    Array.sort
      (fun a b ->
        match compare counts.(a) counts.(b) with 0 -> compare a b | c -> c)
      q;
    let p = Array.make n (-1) in
    let pinv = Array.make n (-1) in  (* original row -> factor row *)
    let x = Array.make n 0.0 in      (* dense accumulator, original rows *)
    let mark = Array.make n (-1) in
    let touched = Array.make n 0 in
    let lg = grow_make () and ug = grow_make () in
    let l_ptr = Array.make (n + 1) 0 in
    let u_ptr = Array.make (n + 1) 0 in
    let u_diag = Array.make n 0.0 in
    for jf = 0 to n - 1 do
      let jorig = q.(jf) in
      let ntouch = ref 0 in
      let touch i =
        if mark.(i) <> jf then begin
          mark.(i) <- jf;
          touched.(!ntouch) <- i;
          incr ntouch
        end
      in
      col jorig (fun i v ->
          touch i;
          x.(i) <- x.(i) +. v);
      (* Forward-eliminate with the columns already factored, in factor
         order; x.(p.(kf)) is final once step kf is reached, so the U
         entries can be harvested on the fly. *)
      for kf = 0 to jf - 1 do
        let pr = p.(kf) in
        let ukj = x.(pr) in
        if ukj <> 0.0 then begin
          grow_push ug kf ukj;
          for e = l_ptr.(kf) to l_ptr.(kf + 1) - 1 do
            let i = lg.g_idx.(e) in
            touch i;
            x.(i) <- x.(i) -. (lg.g_val.(e) *. ukj)
          done
        end
      done;
      u_ptr.(jf + 1) <- ug.g_len;
      (* Partial pivot: largest magnitude among still-unassigned rows. *)
      let piv = ref (-1) and piv_val = ref Tol.pivot in
      for k = 0 to !ntouch - 1 do
        let i = touched.(k) in
        if pinv.(i) < 0 then begin
          let a = Float.abs x.(i) in
          if
            a > !piv_val
            || (a = !piv_val && (!piv < 0 || i < !piv))
          then begin
            piv := i;
            piv_val := a
          end
        end
      done;
      if !piv < 0 then raise (Singular jf);
      let ipiv = !piv in
      p.(jf) <- ipiv;
      pinv.(ipiv) <- jf;
      let d = x.(ipiv) in
      u_diag.(jf) <- d;
      for k = 0 to !ntouch - 1 do
        let i = touched.(k) in
        if pinv.(i) < 0 && x.(i) <> 0.0 then
          (* L entries recorded by original row; remapped once every row
             has its factor position. *)
          grow_push lg i (x.(i) /. d);
        x.(i) <- 0.0
      done;
      l_ptr.(jf + 1) <- lg.g_len
    done;
    let l_idx = Array.sub lg.g_idx 0 lg.g_len in
    let l_val = Array.sub lg.g_val 0 lg.g_len in
    for e = 0 to Array.length l_idx - 1 do
      l_idx.(e) <- pinv.(l_idx.(e))
    done;
    let u_idx = Array.sub ug.g_idx 0 ug.g_len in
    let u_val = Array.sub ug.g_val 0 ug.g_len in
    let lr_ptr, lr_idx, lr_val = transpose_ccs n l_ptr l_idx l_val in
    let ur_ptr, ur_idx, ur_val = transpose_ccs n u_ptr u_idx u_val in
    {
      n;
      l_ptr;
      l_idx;
      l_val;
      u_ptr;
      u_idx;
      u_val;
      u_diag;
      p;
      q;
      pinv = Array.copy pinv;
      qinv = inverse_perm q;
      lr_ptr;
      lr_idx;
      lr_val;
      ur_ptr;
      ur_idx;
      ur_val;
    }

  (* B x = b.  [b] is indexed by original row, the result by basis
     position (the original column slot); [work] is an n-scratch.  The
     result may alias [b]. *)
  let ftran_in_place f ~work b =
    let n = f.n in
    for i = 0 to n - 1 do
      work.(i) <- b.(f.p.(i))
    done;
    for jf = 0 to n - 1 do
      let t = work.(jf) in
      if t <> 0.0 then
        for e = f.l_ptr.(jf) to f.l_ptr.(jf + 1) - 1 do
          let i = f.l_idx.(e) in
          work.(i) <- work.(i) -. (f.l_val.(e) *. t)
        done
    done;
    for jf = n - 1 downto 0 do
      let t = work.(jf) /. f.u_diag.(jf) in
      work.(jf) <- t;
      if t <> 0.0 then
        for e = f.u_ptr.(jf) to f.u_ptr.(jf + 1) - 1 do
          let k = f.u_idx.(e) in
          work.(k) <- work.(k) -. (f.u_val.(e) *. t)
        done
    done;
    for jf = 0 to n - 1 do
      b.(f.q.(jf)) <- work.(jf)
    done

  (* Bᵀ y = c.  [c] is indexed by basis position, the result by original
     row; may alias. *)
  let btran_in_place f ~work c =
    let n = f.n in
    for jf = 0 to n - 1 do
      work.(jf) <- c.(f.q.(jf))
    done;
    for jf = 0 to n - 1 do
      let acc = ref work.(jf) in
      for e = f.u_ptr.(jf) to f.u_ptr.(jf + 1) - 1 do
        acc := !acc -. (f.u_val.(e) *. work.(f.u_idx.(e)))
      done;
      work.(jf) <- !acc /. f.u_diag.(jf)
    done;
    for jf = n - 1 downto 0 do
      let acc = ref work.(jf) in
      for e = f.l_ptr.(jf) to f.l_ptr.(jf + 1) - 1 do
        acc := !acc -. (f.l_val.(e) *. work.(f.l_idx.(e)))
      done;
      work.(jf) <- !acc
    done;
    for jf = 0 to n - 1 do
      c.(f.p.(jf)) <- work.(jf)
    done
end

(* A column accessor over lists of (row, value) entries, emitted in list
   order; duplicates are summed by the factorization.  It allocates
   nothing, so the allocation gate sees only the factorization. *)
let rec emit_entries emit = function
  | [] -> ()
  | (i, v) :: rest ->
    emit i v;
    emit_entries emit rest

let emit_cols cols j emit = emit_entries emit cols.(j)

(* Values whose sums depend on the order they are added in, so a changed
   update order shows in the low bits. *)
let order_sensitive = [| 0.1; 0.2; 0.3; -0.3; 1.0 /. 3.0; -0.7; 2.5; -1.0; 1.0 |]

let rand_value rng =
  if Workload.Rng.bool rng then Workload.Rng.pick rng order_sensitive
  else Workload.Rng.float_range rng (-4.0) 4.0

(* The bases the simplex factorizes: mostly signed unit (slack) columns,
   a few structural columns of 2–5 entries, rows permuted. *)
let slack_heavy_cols rng n =
  let perm = Array.init n (fun i -> i) in
  Workload.Rng.shuffle rng perm;
  Array.init n (fun j ->
      if Workload.Rng.int rng 8 > 0 then
        [ (perm.(j), if Workload.Rng.bool rng then 1.0 else -1.0) ]
      else begin
        let acc = ref [ (perm.(j), Workload.Rng.float_range rng 1.0 3.0) ] in
        for _ = 1 to 1 + Workload.Rng.int rng 4 do
          acc := (Workload.Rng.int rng n, rand_value rng) :: !acc
        done;
        List.rev !acc
      end)

(* Unstructured sparse columns, often singular, with duplicate entries and
   exact cancellations (a value and its negation on one row). *)
let cancelling_cols rng n =
  Array.init n (fun _ ->
      let acc = ref [] in
      for _ = 1 to Workload.Rng.int rng 5 do
        let i = Workload.Rng.int rng n in
        match Workload.Rng.int rng 4 with
        | 0 ->
          let v = rand_value rng in
          acc := (i, -.v) :: (i, v) :: !acc
        | 1 -> acc := (i, rand_value rng) :: (i, rand_value rng) :: !acc
        | _ -> acc := (i, rand_value rng) :: !acc
      done;
      List.rev !acc)

(* Columns whose counts run from 1 to about n, most of them small: the
   static order sorts many ties and a few long columns. *)
let wide_count_cols rng n =
  Array.init n (fun j ->
      let count =
        if Workload.Rng.int rng 6 = 0 then 1 + Workload.Rng.int rng n
        else 1 + Workload.Rng.int rng 3
      in
      (j, Workload.Rng.float_range rng 4.0 8.0)
      :: List.init (count - 1) (fun _ ->
             (Workload.Rng.int rng n, rand_value rng)))

(* Dense matrices: the last columns reach every earlier column, beyond
   the insertion-sort cutoff. *)
let dense_cols rng n =
  Array.init n (fun _ -> List.init n (fun i -> (i, rand_value rng)))

(* An L chain: column k pivots row k and leaves an L entry on row k+1, so
   a closing column with an entry on row 0 reaches the whole chain. *)
let chain_cols rng n =
  Array.init n (fun k ->
      if k < n - 1 then
        [ (k, Workload.Rng.float_range rng 2.0 3.0);
          (k + 1, Workload.Rng.float_range rng (-1.0) 1.0) ]
      else List.init n (fun i -> (i, rand_value rng)))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       a b

(* Both factorizations of [cols] agree: the same [Singular] step, or the
   same nnz and, on every unit vector and one random dense right-hand
   side, the oracle's dense-scan FTRAN/BTRAN bitwise equal to the
   dense-scan Forrest–Tomlin solves on the fresh factors. *)
let factorize_matches_oracle rng n cols =
  let col = emit_cols cols in
  let attempt factorize =
    match factorize ~n ~col with
    | f -> Ok f
    | exception Lina.Lu.Singular k -> Error k
  in
  match (attempt Scan_lu.factorize, attempt Slu.factorize) with
  | Error k, Error k' -> k = k'
  | Ok o, Ok f ->
    let work = Array.make n 0.0 in
    let ft = f and s = Slu.scratch n in
    let agree solve_o solve_f b =
      let bo = Array.copy b and bf = Array.copy b in
      solve_o o ~work bo;
      ignore (solve_f ft s bf : int);
      same_bits bo bf
    in
    let rhs =
      Array.init n (fun _ -> Workload.Rng.float_range rng (-3.0) 3.0)
      :: List.init n (fun i -> Array.init n (fun k -> if k = i then 1.0 else 0.0))
    in
    Scan_lu.nnz o = Slu.ft_nnz f
    && List.for_all
         (fun b ->
           agree Scan_lu.ftran_in_place Slu.ft_ftran_dense b
           && agree Scan_lu.btran_in_place Slu.ft_btran_dense b)
         rhs
  | _ -> false

let factorize_properties =
  let case ~name ~count ~sizes gen_cols =
    Seeded.to_alcotest ~seed:1988
      (QCheck2.Test.make ~name ~count
         QCheck2.Gen.(pair sizes (int_bound 1_000_000))
         (fun (n, seed) ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 5)) in
           factorize_matches_oracle rng n (gen_cols rng n)))
  in
  [
    case ~name:"slack-heavy bases match the column-scan oracle" ~count:150
      ~sizes:QCheck2.Gen.(int_range 0 120) slack_heavy_cols;
    case ~name:"duplicates and cancellations match the oracle" ~count:300
      ~sizes:QCheck2.Gen.(int_range 0 30) cancelling_cols;
    case ~name:"wide count ranges match the oracle" ~count:150
      ~sizes:QCheck2.Gen.(int_range 1 60) wide_count_cols;
    case ~name:"long reaches match the oracle" ~count:20
      ~sizes:QCheck2.Gen.(int_range 33 48) dense_cols;
    case ~name:"a reach through an L chain matches the oracle" ~count:20
      ~sizes:QCheck2.Gen.(int_range 40 90) chain_cols;
    Alcotest.test_case "n = 0 and n = 1 match the oracle" `Quick (fun () ->
        let rng = Workload.Rng.create 3L in
        List.iter
          (fun (n, cols) ->
            if not (factorize_matches_oracle rng n cols) then
              Alcotest.failf "n = %d differs from the oracle" n)
          [ (0, [||]); (1, [| [ (0, 2.0) ] |]); (1, [| [ (0, 0.5); (0, -0.5) ] |]);
            (1, [| [] |]) ]);
  ]

(* A slack-heavy basis: mostly unit columns, a few short structurals. *)
let slack_heavy_csc n seed =
  csc_of_cols n (slack_heavy_cols (Workload.Rng.create seed) n)

(* Factorizing a slack-heavy basis into new factors through a warm
   scratch allocates at most O(n + nnz): the factors' per-index arrays,
   L and its row copy, and the U lists.  The staging arrays, counts,
   marks, reach, accumulator and entry stores live in the scratch, and
   the reaches are sorted in place.  Measured: 16326 words for
   n + nnz = 4676, a factor of 3.5, so the limit stays 6.  Creating the
   factors (list heads, solve buffers) is pinned by [Basis.create]'s
   gate.  While a factorization returned an immutable factor value it
   read 26118 (5.6; 9 while the workspace was allocated per call); with
   per-call workspace the closure-fed factorization read 40273 words
   (8.6), a copy-and-sort of every reach 48369 (10.3) and one closure
   per column 50273 (10.8). *)
let factorize_alloc_tests =
  [
    Alcotest.test_case "factorize allocates O(n + nnz) on a slack-heavy basis"
      `Quick (fun () ->
        let n = 2000 in
        let a = slack_heavy_csc n 17L in
        let basic = Array.init n Fun.id in
        let s = Slu.scratch n in
        Slu.ft_factorize (Slu.ft_create n) s a ~unit_sign:[||] basic;
        let f = Slu.ft_create n in
        let words =
          Gc_probe.allocated_words (fun () ->
              Slu.ft_factorize f s a ~unit_sign:[||] basic)
        in
        let nnz = n + Slu.ft_nnz f in
        let limit = 6 * nnz in
        if words > float_of_int limit then
          Alcotest.failf "factorize allocated %.0f words (limit %d)" words limit);
    Alcotest.test_case "a refactorization allocates nothing once grown" `Quick
      (fun () ->
        (* Factors of capacity 2000 driven through different slack-heavy
           bases, a smaller dimension, an identity load and a singular
           basis: after one pass has grown their storage, every call of a
           second pass allocates nothing. *)
        let cap = 2000 in
        let s = Slu.scratch cap and f = Slu.ft_create cap in
        let bases = List.map (slack_heavy_csc cap) [ 17L; 18L; 19L ] in
        let small = slack_heavy_csc 1500 20L in
        let singular =
          csc_of_cols cap (Array.init cap (fun j -> [ (j / 2 * 2, 1.0) ]))
        in
        let ident =
          Array.init cap (fun i -> if i mod 3 = 0 then -1.0 else 1.0)
        in
        let basic = Array.init cap Fun.id in
        (* Each step with the words it may allocate: nothing, except
           the [Singular] exception itself (3 words). *)
        let steps =
          List.map
            (fun a ->
              ( 0.0,
                fun () ->
                  Slu.ft_reset f cap;
                  Slu.ft_factorize f s a ~unit_sign:[||] basic ))
            bases
          @ [
              ( 0.0,
                fun () ->
                  Slu.ft_reset f 1500;
                  Slu.ft_factorize f s small ~unit_sign:[||] basic );
              ( 0.0,
                fun () ->
                  Slu.ft_reset f cap;
                  Slu.ft_load_diagonal f ident );
              ( 3.0,
                fun () ->
                  match Slu.ft_factorize f s singular ~unit_sign:[||] basic with
                  | () -> Alcotest.fail "a singular basis must raise"
                  | exception Lina.Lu.Singular _ -> () );
            ]
        in
        List.iter (fun (_, step) -> step ()) steps;
        List.iteri
          (fun k (limit, step) ->
            let words = Gc_probe.allocated_words step in
            if words > limit then
              Alcotest.failf "step %d allocated %.0f words once grown" k words)
          steps);
  ]

let suite =
  [
    ("lina.csc", csc_tests @ csc_properties @ csc_alloc_tests);
    ("lina.lu", lu_tests @ lu_properties);
    ("lina.lu.reach", reach_properties);
    ( "lina.lu.ft",
      ft_tests @ ft_properties
      @ [
          singular_refactorization_test;
          Alcotest.test_case "more than 2n updates without a refactorization"
            `Quick (fun () ->
              Alcotest.(check string) "digest"
                "updates=1505 efda98c34694301588238b037e5a4c5f"
                (long_update_digest ()));
        ] );
    ("lina.lu.support", support_tests);
    ("lina.lu.roots", roots_tests);
    ("lina.lu.factorize", factorize_properties @ factorize_alloc_tests);
  ]
