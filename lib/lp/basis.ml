module Slu = Lina.Lu.Sparse

(* Forrest–Tomlin: the factors themselves absorb each pivot
   (Lina.Lu.Sparse.ft_update), so there is no product-form file to pay
   on later solves — only the bounded row-eta multipliers inside. *)
type t = {
  mutable m : int;  (* logical dimension, at most the capacity *)
  ft : Slu.ft;
  uscratch : Slu.scratch;
      (* factorization and reach-solve workspace, one per basis; also
         carries the support of the last solve's result *)
  unit_root : int array;
      (* the one-entry RHS pattern of a unit-column FTRAN or a unit-row
         BTRAN *)
}

(* No factors until the first [load_identity] or [factorize]: every
   solver path installs one of those before its first solve, so an
   identity built here would only be thrown away. *)
let create m =
  { m; ft = Slu.ft_create m; uscratch = Slu.scratch m; unit_root = [| 0 |] }

let reset t m =
  Slu.ft_reset t.ft m;
  t.m <- m

let update_count t = Slu.ft_updates t.ft
let fill_ratio t = Slu.ft_fill_ratio t.ft
let fill_exceeds t limit = Slu.ft_fill_exceeds t.ft limit
let solve_cost t = Slu.ft_nnz t.ft + t.m
let load_identity t signs = Slu.ft_load_diagonal t.ft signs

let factorize t a ~unit_sign basic =
  Slu.ft_factorize t.ft t.uscratch a ~unit_sign basic

(* --- solves ------------------------------------------------------------ *)

let ftran_in_place t b = Slu.ft_ftran t.ft t.uscratch b

(* The RHS pattern goes to the solve with the RHS: a column's CSC row
   indices (ascending, no stored zeros) or the unit column's one row —
   exactly what a scan of the zeroed-then-scattered [w] would gather. *)
let ftran_col t a ~unit_sign j w =
  let ncols = Lina.Csc.cols a in
  if j < ncols then begin
    let first = a.Lina.Csc.col_ptr.(j) and last = a.Lina.Csc.col_ptr.(j + 1) in
    for e = first to last - 1 do
      w.(a.Lina.Csc.row_idx.(e)) <- a.Lina.Csc.value.(e)
    done;
    Slu.ft_ftran_roots t.ft t.uscratch w ~roots:a.Lina.Csc.row_idx ~first
      ~len:(last - first)
  end
  else begin
    let i = j - ncols in
    w.(i) <- unit_sign.(i);
    t.unit_root.(0) <- i;
    Slu.ft_ftran_roots t.ft t.uscratch w ~roots:t.unit_root ~first:0 ~len:1
  end

let btran_in_place t c = Slu.ft_btran t.ft t.uscratch c

let unit_row t r out =
  out.(r) <- 1.0;
  t.unit_root.(0) <- r;
  Slu.ft_btran_roots t.ft t.uscratch out ~roots:t.unit_root ~first:0 ~len:1

let support_len t = Slu.support_len t.uscratch
let support t = Slu.support t.uscratch
let result_nnz t = Slu.result_nnz t.uscratch

(* --- pivot update ------------------------------------------------------ *)

let update t ~r = Slu.ft_update t.ft t.uscratch ~r
let update_work t = Slu.ft_update_work t.ft
let update_added t = Slu.ft_update_added t.ft
