module Dm = Lina.Dense_matrix
module Slu = Lina.Lu.Sparse

type kind = Dense_inverse | Updatable_lu

type dense = { mutable binv : Dm.t }

(* Forrest–Tomlin: the factors themselves absorb each pivot
   (Lina.Lu.Sparse.ft_update), so there is no product-form file to pay
   on later solves — only the bounded row-eta multipliers inside. *)
type updated = {
  mutable ft : Slu.ft;
  uscratch : Slu.scratch;  (* reach-solve workspace, one per representation *)
}

type rep = Dense of dense | Updated of updated

type t = { m : int; rep : rep; work : float array }

type update_result = Applied of { work : int; added : int } | Rejected

let create kind m =
  let rep =
    match kind with
    | Dense_inverse -> Dense { binv = Dm.identity m }
    | Updatable_lu ->
      Updated
        {
          ft = Slu.ft_of_factors (Slu.of_diagonal (Array.make m 1.0));
          uscratch = Slu.scratch m;
        }
  in
  { m; rep; work = Array.make m 0.0 }

let kind t =
  match t.rep with Dense _ -> Dense_inverse | Updated _ -> Updatable_lu

let dim t = t.m

let update_count t =
  match t.rep with Dense _ -> 0 | Updated u -> Slu.ft_updates u.ft

let fill_ratio t =
  match t.rep with Dense _ -> 1.0 | Updated u -> Slu.ft_fill_ratio u.ft

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

let factorize t col =
  match t.rep with
  | Dense d ->
    let b = Dm.create ~rows:t.m ~cols:t.m in
    for pos = 0 to t.m - 1 do
      col pos (fun i v -> Dm.set b i pos v)
    done;
    d.binv <- Lina.Lu.inverse (Lina.Lu.factorize b)
  | Updated u -> Slu.ft_refresh u.ft (Slu.factorize ~n:t.m ~col)

(* --- solves ------------------------------------------------------------ *)

let ftran_in_place t b =
  match t.rep with
  | Dense d ->
    let x = Dm.mult_vec d.binv b in
    Array.blit x 0 b 0 t.m;
    t.m * t.m
  | Updated u -> Slu.ft_ftran u.ft u.uscratch b

let ftran_col t col w =
  match t.rep with
  | Dense d ->
    col (fun i v -> Dm.col_axpy d.binv i v w);
    t.m * t.m
  | Updated u ->
    col (fun i v -> w.(i) <- w.(i) +. v);
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

(* --- pivot update ------------------------------------------------------ *)

let update t ~r ~w =
  match t.rep with
  | Dense d ->
    Dm.pivot_update d.binv w r;
    Applied { work = 0; added = 0 }
  | Updated u -> (
    match Slu.ft_update u.ft u.uscratch ~r with
    | Some { Slu.upd_work; upd_added } ->
      Applied { work = upd_work; added = upd_added }
    | None -> Rejected)
