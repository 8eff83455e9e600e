type sense = Minimize | Maximize
type var_kind = Continuous | Integer | Binary
type var = int

(* Variables live in parallel arrays indexed by id.  Rows are stored
   flat, CSR style: row [i]'s terms are [t_var.(p)], [t_coeff.(p)] for
   [p] in [row_start.(i) .. row_start.(i + 1) - 1], in canonical form
   (ascending by variable, each variable once, no zero coefficient),
   with the bounds [row_lo.(i)], [row_hi.(i)].  Every array grows by
   doubling, and may be longer than its contents: a model can start on
   the arrays of a released one. *)
type t = {
  mutable v_lb : float array;
  mutable v_ub : float array;
  mutable v_kind : var_kind array;
  mutable n_vars : int;
  mutable t_var : int array;
  mutable t_coeff : float array;
  mutable n_terms : int;
  mutable row_start : int array;  (* [row_start.(n_rows) = n_terms] *)
  mutable row_lo : float array;
  mutable row_hi : float array;
  mutable n_rows : int;
  mutable obj_sense : sense;
  mutable obj_terms : (var * float) list;
  mutable obj_offset : float;
  mutable released : bool;
}

(* One spare store per domain: {!release} leaves a finished model's
   arrays here and the next {!create} on the domain starts on them, so a
   model build stops regrowing them by doubling from scratch.  The spare
   is a model record of its own with nothing in it; a released record
   keeps no array, so a stale handle cannot alias the next model. *)
let spare : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let create () =
  let slot = Domain.DLS.get spare in
  match !slot with
  | Some m ->
    slot := None;
    m
  | None ->
    {
      v_lb = Array.make 16 0.0;
      v_ub = Array.make 16 0.0;
      v_kind = Array.make 16 Continuous;
      n_vars = 0;
      t_var = Array.make 64 0;
      t_coeff = Array.make 64 0.0;
      n_terms = 0;
      row_start = Array.make 17 0;
      row_lo = Array.make 16 0.0;
      row_hi = Array.make 16 0.0;
      n_rows = 0;
      obj_sense = Minimize;
      obj_terms = [];
      obj_offset = 0.0;
      released = false;
    }

let live m = if m.released then invalid_arg "Model: released model"

(* Keeps the arrays of the larger term store of [m] and the current
   spare; [m] is left empty. *)
let release m =
  live m;
  let slot = Domain.DLS.get spare in
  (match !slot with
  | Some sp when Array.length sp.t_var >= Array.length m.t_var -> ()
  | _ ->
    slot :=
      Some
        {
          m with
          n_vars = 0;
          n_terms = 0;
          n_rows = 0;
          obj_sense = Minimize;
          obj_terms = [];
          obj_offset = 0.0;
        });
  m.v_lb <- [||];
  m.v_ub <- [||];
  m.v_kind <- [||];
  m.n_vars <- 0;
  m.t_var <- [||];
  m.t_coeff <- [||];
  m.n_terms <- 0;
  m.row_start <- [||];
  m.row_lo <- [||];
  m.row_hi <- [||];
  m.n_rows <- 0;
  m.obj_terms <- [];
  m.released <- true

let grow a len fill =
  let bigger = Array.make (2 * Array.length a) fill in
  Array.blit a 0 bigger 0 len;
  bigger

let add_var ?(lb = 0.0) ?(ub = infinity) ?(kind = Continuous) m =
  let lb, ub =
    match kind with
    | Binary -> (Float.max lb 0.0, Float.min ub 1.0)
    | Continuous | Integer -> (lb, ub)
  in
  live m;
  let id = m.n_vars in
  if lb > ub then invalid_arg (Printf.sprintf "Model.add_var %d: lb > ub" id);
  if id = Array.length m.v_lb then begin
    m.v_lb <- grow m.v_lb id 0.0;
    m.v_ub <- grow m.v_ub id 0.0;
    m.v_kind <- grow m.v_kind id Continuous
  end;
  m.v_lb.(id) <- lb;
  m.v_ub.(id) <- ub;
  m.v_kind.(id) <- kind;
  m.n_vars <- id + 1;
  id

let push_term m v c =
  let p = m.n_terms in
  if p = Array.length m.t_var then begin
    m.t_var <- grow m.t_var p 0;
    m.t_coeff <- grow m.t_coeff p 0.0
  end;
  m.t_var.(p) <- v;
  m.t_coeff.(p) <- c;
  m.n_terms <- p + 1

(* Appends the canonical form of [terms] to the term store: ascending by
   variable, a repeated variable's coefficients summed in the order
   given, sums that [Tol.is_zero] accepts dropped. *)
let push_canonical m terms =
  live m;
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> (a : int) <= b && ascending rest
    | [ _ ] | [] -> true
  in
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= m.n_vars then
        invalid_arg (Printf.sprintf "Model: term uses unknown var %d" v))
    terms;
  let terms =
    if ascending terms then terms
    else List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) terms
  in
  let start = m.n_terms in
  List.iter
    (fun (v, c) ->
      let last = m.n_terms - 1 in
      if last >= start && m.t_var.(last) = v then
        m.t_coeff.(last) <- m.t_coeff.(last) +. c
      else push_term m v c)
    terms;
  let kept = ref start in
  for p = start to m.n_terms - 1 do
    if not (Lina.Tol.is_zero m.t_coeff.(p)) then begin
      m.t_var.(!kept) <- m.t_var.(p);
      m.t_coeff.(!kept) <- m.t_coeff.(p);
      incr kept
    end
  done;
  m.n_terms <- !kept

let add_row m terms lo hi =
  if lo > hi then invalid_arg "Model.add_range: lo > hi";
  push_canonical m terms;
  let i = m.n_rows in
  if i = Array.length m.row_lo then begin
    m.row_lo <- grow m.row_lo i 0.0;
    m.row_hi <- grow m.row_hi i 0.0;
    m.row_start <- grow m.row_start (i + 1) 0
  end;
  m.row_lo.(i) <- lo;
  m.row_hi.(i) <- hi;
  m.row_start.(i + 1) <- m.n_terms;
  m.n_rows <- i + 1

let add_le m terms rhs = add_row m terms neg_infinity rhs
let add_ge m terms rhs = add_row m terms rhs infinity
let add_eq m terms rhs = add_row m terms rhs rhs
let add_range m ~lo ~hi terms = add_row m terms lo hi

let terms_between m first last =
  List.init (last - first) (fun k -> (m.t_var.(first + k), m.t_coeff.(first + k)))

(* The objective passes through the term store's free tail, which the
   next row overwrites. *)
let set_objective m sense ?(offset = 0.0) terms =
  let start = m.n_terms in
  push_canonical m terms;
  m.obj_terms <- terms_between m start m.n_terms;
  m.n_terms <- start;
  m.obj_sense <- sense;
  m.obj_offset <- offset

let objective m =
  live m;
  (m.obj_sense, m.obj_terms, m.obj_offset)

let check_var m v =
  live m;
  if v < 0 || v >= m.n_vars then invalid_arg "Model: unknown variable"

let fix_var m v x =
  check_var m v;
  m.v_lb.(v) <- x;
  m.v_ub.(v) <- x

let num_vars m =
  live m;
  m.n_vars

let num_constrs m =
  live m;
  m.n_rows

let var_of_id m id =
  check_var m id;
  id

let var_kind m v =
  check_var m v;
  m.v_kind.(v)

let var_lb m v =
  check_var m v;
  m.v_lb.(v)

let var_ub m v =
  check_var m v;
  m.v_ub.(v)

let row_store m =
  live m;
  (m.row_start, m.t_var, m.t_coeff)

let check_row m i =
  live m;
  if i < 0 || i >= m.n_rows then invalid_arg "Model: unknown row"

let row_terms m i =
  check_row m i;
  terms_between m m.row_start.(i) m.row_start.(i + 1)

let row_lo m i =
  check_row m i;
  m.row_lo.(i)

let row_hi m i =
  check_row m i;
  m.row_hi.(i)
