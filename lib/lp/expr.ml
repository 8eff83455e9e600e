module Imap = Map.Make (Int)

type t = { terms : float Imap.t; const : float }

let zero = { terms = Imap.empty; const = 0.0 }
let const c = { terms = Imap.empty; const = c }

let clean terms = Imap.filter (fun _ c -> not (Lina.Tol.is_zero c)) terms

let var ?(coeff = 1.0) v =
  if v < 0 then invalid_arg "Expr.var: negative id";
  { terms = clean (Imap.singleton v coeff); const = 0.0 }

let add_term e v c =
  if v < 0 then invalid_arg "Expr.add_term: negative id";
  let merged =
    Imap.update v
      (function None -> Some c | Some c0 -> Some (c0 +. c))
      e.terms
  in
  { e with terms = clean merged }

let add_const e c = { e with const = e.const +. c }

let of_terms ?(const = 0.0) pairs =
  List.fold_left (fun e (v, c) -> add_term e v c) { zero with const } pairs

let add a b =
  let terms =
    Imap.union (fun _ c1 c2 -> Some (c1 +. c2)) a.terms b.terms |> clean
  in
  { terms; const = a.const +. b.const }

let scale s e =
  if Lina.Tol.is_zero s then const 0.0
  else { terms = Imap.map (fun c -> s *. c) e.terms; const = s *. e.const }

let sub a b = add a (scale (-1.0) b)
let sum es = List.fold_left add zero es
let coeff e v = match Imap.find_opt v e.terms with Some c -> c | None -> 0.0
let constant e = e.const
let terms e = Imap.bindings e.terms
let iter_terms f e = Imap.iter f e.terms
let num_terms e = Imap.cardinal e.terms

let eval e value_of =
  Imap.fold (fun v c acc -> acc +. (c *. value_of v)) e.terms e.const
