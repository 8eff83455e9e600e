module Slu = Lina.Lu.Sparse

(* Forrest–Tomlin: the factors themselves absorb each pivot
   (Lina.Lu.Sparse.ft_update), so there is no product-form file to pay
   on later solves — only the bounded row-eta multipliers inside. *)
type t = {
  m : int;
  ft : Slu.ft;
  uscratch : Slu.scratch;
      (* factorization and reach-solve workspace, one per basis; also
         carries the support of the last solve's result *)
}

(* No factors until the first [load_identity] or [factorize]: every
   solver path installs one of those before its first solve, so an
   identity built here would only be thrown away. *)
let create m = { m; ft = Slu.ft_create m; uscratch = Slu.scratch m }

let update_count t = Slu.ft_updates t.ft
let fill_ratio t = Slu.ft_fill_ratio t.ft
let fill_exceeds t limit = Slu.ft_fill_exceeds t.ft limit
let solve_cost t = Slu.ft_nnz t.ft + t.m
let load_identity t signs = Slu.ft_refresh t.ft (Slu.of_diagonal signs)

let factorize t a ~unit_sign basic =
  Slu.ft_refresh t.ft (Slu.factorize_basis t.uscratch a ~unit_sign basic)

(* --- solves ------------------------------------------------------------ *)

let ftran_in_place t b = Slu.ft_ftran t.ft t.uscratch b

let ftran_col t a ~unit_sign j w =
  let ncols = Lina.Csc.cols a in
  if j < ncols then
    for e = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
      let i = a.Lina.Csc.row_idx.(e) in
      w.(i) <- w.(i) +. a.Lina.Csc.value.(e)
    done
  else begin
    let i = j - ncols in
    w.(i) <- w.(i) +. unit_sign.(i)
  end;
  Slu.ft_ftran t.ft t.uscratch w

let btran_in_place t c = Slu.ft_btran t.ft t.uscratch c

let unit_row t r out =
  Array.fill out 0 t.m 0.0;
  out.(r) <- 1.0;
  btran_in_place t out

let support_len t = Slu.support_len t.uscratch
let support t = Slu.support t.uscratch

(* --- pivot update ------------------------------------------------------ *)

let update t ~r = Slu.ft_update t.ft t.uscratch ~r
let update_work t = Slu.ft_update_work t.ft
let update_added t = Slu.ft_update_added t.ft
