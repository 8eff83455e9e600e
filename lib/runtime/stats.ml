type t = {
  mutable simplex_iterations : int;
  mutable refactorizations : int;
  mutable lp_solves : int;
  mutable ftran_nnz : int;
  mutable btran_nnz : int;
  mutable basis_updates : int;
  mutable spike_fill : int;
  mutable refactor_fill : int;
  mutable refactor_drift : int;
  mutable refactor_forced : int;
  mutable pricing_hits : int;
  mutable pricing_sweeps : int;
  mutable bb_nodes : int;
  mutable incumbents : int;
  mutable bound_updates : int;
  mutable greedy_lp_solves : int;
  mutable greedy_candidates : int;
  mutable greedy_accepted : int;
  mutable rounding_attempts : int;
  mutable rounding_candidates : int;
  mutable rounding_repairs : int;
  mutable rounding_fallbacks : int;
  mutable service_requests : int;
  mutable service_admitted : int;
  mutable service_denied : int;
  mutable service_fallbacks : int;
  mutable service_reevals : int;
}

let create () =
  {
    simplex_iterations = 0;
    refactorizations = 0;
    lp_solves = 0;
    ftran_nnz = 0;
    btran_nnz = 0;
    basis_updates = 0;
    spike_fill = 0;
    refactor_fill = 0;
    refactor_drift = 0;
    refactor_forced = 0;
    pricing_hits = 0;
    pricing_sweeps = 0;
    bb_nodes = 0;
    incumbents = 0;
    bound_updates = 0;
    greedy_lp_solves = 0;
    greedy_candidates = 0;
    greedy_accepted = 0;
    rounding_attempts = 0;
    rounding_candidates = 0;
    rounding_repairs = 0;
    rounding_fallbacks = 0;
    service_requests = 0;
    service_admitted = 0;
    service_denied = 0;
    service_fallbacks = 0;
    service_reevals = 0;
  }

module Json = Statsutil.Json

(* The one field table: [merge], [to_json] and [of_json] walk it, so a
   counter's name, and its place in the encoded object, are written once.
   The order is the JSON member order. *)
type field = Int of string * (t -> int) * (t -> int -> unit)

let fields =
  [
    Int ("simplex_iterations", (fun s -> s.simplex_iterations),
      fun s v -> s.simplex_iterations <- v);
    Int ("refactorizations", (fun s -> s.refactorizations),
      fun s v -> s.refactorizations <- v);
    Int ("lp_solves", (fun s -> s.lp_solves), fun s v -> s.lp_solves <- v);
    Int ("ftran_nnz", (fun s -> s.ftran_nnz), fun s v -> s.ftran_nnz <- v);
    Int ("btran_nnz", (fun s -> s.btran_nnz), fun s v -> s.btran_nnz <- v);
    Int ("basis_updates", (fun s -> s.basis_updates),
      fun s v -> s.basis_updates <- v);
    Int ("spike_fill", (fun s -> s.spike_fill), fun s v -> s.spike_fill <- v);
    Int ("refactor_fill", (fun s -> s.refactor_fill),
      fun s v -> s.refactor_fill <- v);
    Int ("refactor_drift", (fun s -> s.refactor_drift),
      fun s v -> s.refactor_drift <- v);
    Int ("refactor_forced", (fun s -> s.refactor_forced),
      fun s v -> s.refactor_forced <- v);
    Int ("pricing_hits", (fun s -> s.pricing_hits),
      fun s v -> s.pricing_hits <- v);
    Int ("pricing_sweeps", (fun s -> s.pricing_sweeps),
      fun s v -> s.pricing_sweeps <- v);
    Int ("bb_nodes", (fun s -> s.bb_nodes), fun s v -> s.bb_nodes <- v);
    Int ("incumbents", (fun s -> s.incumbents), fun s v -> s.incumbents <- v);
    Int ("bound_updates", (fun s -> s.bound_updates),
      fun s v -> s.bound_updates <- v);
    Int ("greedy_lp_solves", (fun s -> s.greedy_lp_solves),
      fun s v -> s.greedy_lp_solves <- v);
    Int ("greedy_candidates", (fun s -> s.greedy_candidates),
      fun s v -> s.greedy_candidates <- v);
    Int ("greedy_accepted", (fun s -> s.greedy_accepted),
      fun s v -> s.greedy_accepted <- v);
    Int ("rounding_attempts", (fun s -> s.rounding_attempts),
      fun s v -> s.rounding_attempts <- v);
    Int ("rounding_candidates", (fun s -> s.rounding_candidates),
      fun s v -> s.rounding_candidates <- v);
    Int ("rounding_repairs", (fun s -> s.rounding_repairs),
      fun s v -> s.rounding_repairs <- v);
    Int ("rounding_fallbacks", (fun s -> s.rounding_fallbacks),
      fun s v -> s.rounding_fallbacks <- v);
    Int ("service_requests", (fun s -> s.service_requests),
      fun s v -> s.service_requests <- v);
    Int ("service_admitted", (fun s -> s.service_admitted),
      fun s v -> s.service_admitted <- v);
    Int ("service_denied", (fun s -> s.service_denied),
      fun s v -> s.service_denied <- v);
    Int ("service_fallbacks", (fun s -> s.service_fallbacks),
      fun s v -> s.service_fallbacks <- v);
    Int ("service_reevals", (fun s -> s.service_reevals),
      fun s v -> s.service_reevals <- v);
  ]

let merge ~into s =
  List.iter (fun (Int (_, get, set)) -> set into (get into + get s)) fields

let to_json s =
  Json.Obj
    (List.map
       (fun (Int (name, get, _)) -> (name, Json.Num (float_of_int (get s))))
       fields)

let of_json doc =
  match doc with
  | Json.Obj _ ->
    let s = create () in
    let decode name f =
      (* Tolerant on missing counters (they stay zero) and on unknown
         members; strict on malformed ones. *)
      match Json.member name doc with
      | None -> Ok ()
      | Some v -> Result.map_error (fun e -> name ^ ": " ^ e) (f v)
    in
    let rec go = function
      | [] -> Ok s
      | Int (name, _, set) :: rest ->
        Result.bind
          (decode name (fun v -> Result.map (set s) (Json.to_int v)))
          (fun () -> go rest)
    in
    go fields
  | _ -> Error "stats: expected an object"

let to_string s =
  let base =
    Printf.sprintf
      "%d LP solves, %d simplex iters, %d refactorizations (%d fill, %d \
       drift, %d forced) | basis: %d ftran nnz, %d btran nnz, %d FT \
       updates, %d spike fill | pricing: %d list hits, %d sweeps | %d \
       nodes, %d incumbents, %d bound updates | greedy: %d LPs, %d \
       candidates, %d accepted"
      s.lp_solves s.simplex_iterations s.refactorizations s.refactor_fill
      s.refactor_drift s.refactor_forced s.ftran_nnz s.btran_nnz
      s.basis_updates s.spike_fill s.pricing_hits s.pricing_sweeps
      s.bb_nodes s.incumbents s.bound_updates s.greedy_lp_solves
      s.greedy_candidates s.greedy_accepted
  in
  let base =
    if s.rounding_attempts = 0 then base
    else
      base
      ^ Printf.sprintf
          " | rounding: %d attempts, %d candidates, %d repairs, %d fallbacks"
          s.rounding_attempts s.rounding_candidates s.rounding_repairs
          s.rounding_fallbacks
  in
  if s.service_requests = 0 then base
  else
    base
    ^ Printf.sprintf
        " | service: %d requests, %d admitted, %d denied, %d fallbacks, %d \
         re-evals"
        s.service_requests s.service_admitted s.service_denied
        s.service_fallbacks s.service_reevals
