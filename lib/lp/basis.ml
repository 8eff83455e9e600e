module Dm = Lina.Dense_matrix
module Slu = Lina.Lu.Sparse

type kind = Dense_inverse | Updatable_lu

type dense = { mutable binv : Dm.t }

(* Forrest–Tomlin: the factors themselves absorb each pivot
   (Lina.Lu.Sparse.ft_update), so there is no product-form file to pay
   on later solves — only the bounded row-eta multipliers inside. *)
type updated = {
  ft : Slu.ft;
  uscratch : Slu.scratch;
      (* factorization and reach-solve workspace, one per representation;
         also carries the support of the last solve's result *)
}

type rep = Dense of dense | Updated of updated

type t = {
  m : int;
  rep : rep;
  work : float array;
  mutable upd_work : int;
  mutable upd_added : int;
}

(* No factors until the first [load_identity] or [factorize]: every
   solver path installs one of those before its first solve, so an
   identity built here would only be thrown away. *)
let create kind m =
  let rep =
    match kind with
    | Dense_inverse -> Dense { binv = Dm.create ~rows:0 ~cols:0 }
    | Updatable_lu ->
      Updated { ft = Slu.ft_create m; uscratch = Slu.scratch m }
  in
  { m; rep; work = Array.make m 0.0; upd_work = 0; upd_added = 0 }

let kind t =
  match t.rep with Dense _ -> Dense_inverse | Updated _ -> Updatable_lu

let dim t = t.m

let update_count t =
  match t.rep with Dense _ -> 0 | Updated u -> Slu.ft_updates u.ft

let fill_ratio t =
  match t.rep with Dense _ -> 1.0 | Updated u -> Slu.ft_fill_ratio u.ft

let fill_exceeds t limit =
  match t.rep with
  | Dense _ -> 1.0 > limit
  | Updated u -> Slu.ft_fill_exceeds u.ft limit

let solve_cost t =
  match t.rep with
  | Dense _ -> t.m * t.m
  | Updated u -> Slu.ft_nnz u.ft + t.m

let load_identity t signs =
  match t.rep with
  | Dense d ->
    let binv = Dm.create ~rows:t.m ~cols:t.m in
    Array.iteri (fun i s -> Dm.set binv i i (1.0 /. s)) signs;
    d.binv <- binv
  | Updated u -> Slu.ft_refresh u.ft (Slu.of_diagonal signs)

let factorize t a ~unit_sign basic =
  match t.rep with
  | Dense d ->
    let b = Dm.create ~rows:t.m ~cols:t.m in
    let ncols = Lina.Csc.cols a in
    for pos = 0 to t.m - 1 do
      let j = basic.(pos) in
      if j < ncols then
        for e = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
          Dm.set b a.Lina.Csc.row_idx.(e) pos a.Lina.Csc.value.(e)
        done
      else Dm.set b (j - ncols) pos unit_sign.(j - ncols)
    done;
    d.binv <- Lina.Lu.inverse (Lina.Lu.factorize b)
  | Updated u ->
    Slu.ft_refresh u.ft (Slu.factorize_basis u.uscratch a ~unit_sign basic)

(* --- solves ------------------------------------------------------------ *)

let ftran_in_place t b =
  match t.rep with
  | Dense d ->
    let x = Dm.mult_vec d.binv b in
    Array.blit x 0 b 0 t.m;
    t.m * t.m
  | Updated u -> Slu.ft_ftran u.ft u.uscratch b

let ftran_col t a ~unit_sign j w =
  let ncols = Lina.Csc.cols a in
  match t.rep with
  | Dense d ->
    if j < ncols then
      for e = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
        Dm.col_axpy d.binv a.Lina.Csc.row_idx.(e) a.Lina.Csc.value.(e) w
      done
    else Dm.col_axpy d.binv (j - ncols) unit_sign.(j - ncols) w;
    t.m * t.m
  | Updated u ->
    if j < ncols then
      for e = a.Lina.Csc.col_ptr.(j) to a.Lina.Csc.col_ptr.(j + 1) - 1 do
        let i = a.Lina.Csc.row_idx.(e) in
        w.(i) <- w.(i) +. a.Lina.Csc.value.(e)
      done
    else begin
      let i = j - ncols in
      w.(i) <- w.(i) +. unit_sign.(i)
    end;
    Slu.ft_ftran u.ft u.uscratch w

let btran_in_place t c =
  match t.rep with
  | Dense d ->
    (* y = binvᵀ c on the raw storage (row-major, so rows scatter). *)
    let raw = Dm.raw d.binv in
    let m = t.m in
    Array.fill t.work 0 m 0.0;
    for i = 0 to m - 1 do
      let ci = c.(i) in
      if ci <> 0.0 then begin
        let base = i * m in
        for k = 0 to m - 1 do
          t.work.(k) <- t.work.(k) +. (ci *. raw.(base + k))
        done
      end
    done;
    Array.blit t.work 0 c 0 m;
    t.m * t.m
  | Updated u -> Slu.ft_btran u.ft u.uscratch c

let unit_row t r out =
  match t.rep with
  | Dense d ->
    Array.blit (Dm.raw d.binv) (r * t.m) out 0 t.m;
    t.m * t.m
  | Updated _ ->
    Array.fill out 0 t.m 0.0;
    out.(r) <- 1.0;
    btran_in_place t out

let support_len t =
  match t.rep with Dense _ -> -1 | Updated u -> Slu.support_len u.uscratch

let support t =
  match t.rep with Dense _ -> [||] | Updated u -> Slu.support u.uscratch

(* --- pivot update ------------------------------------------------------ *)

let update t ~r ~w =
  match t.rep with
  | Dense d ->
    Dm.pivot_update d.binv w r;
    t.upd_work <- 0;
    t.upd_added <- 0;
    true
  | Updated u ->
    Slu.ft_update u.ft u.uscratch ~r
    && begin
         t.upd_work <- Slu.ft_update_work u.ft;
         t.upd_added <- Slu.ft_update_added u.ft;
         true
       end

let update_work t = t.upd_work
let update_added t = t.upd_added
