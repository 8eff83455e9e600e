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
  mutable greedy_time : float;
  mutable build_time : float;
  mutable search_time : float;
  mutable service_time : float;
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
    greedy_time = 0.0;
    build_time = 0.0;
    search_time = 0.0;
    service_time = 0.0;
  }

let merge ~into s =
  into.simplex_iterations <- into.simplex_iterations + s.simplex_iterations;
  into.refactorizations <- into.refactorizations + s.refactorizations;
  into.lp_solves <- into.lp_solves + s.lp_solves;
  into.ftran_nnz <- into.ftran_nnz + s.ftran_nnz;
  into.btran_nnz <- into.btran_nnz + s.btran_nnz;
  into.basis_updates <- into.basis_updates + s.basis_updates;
  into.spike_fill <- into.spike_fill + s.spike_fill;
  into.refactor_fill <- into.refactor_fill + s.refactor_fill;
  into.refactor_drift <- into.refactor_drift + s.refactor_drift;
  into.refactor_forced <- into.refactor_forced + s.refactor_forced;
  into.pricing_hits <- into.pricing_hits + s.pricing_hits;
  into.pricing_sweeps <- into.pricing_sweeps + s.pricing_sweeps;
  into.bb_nodes <- into.bb_nodes + s.bb_nodes;
  into.incumbents <- into.incumbents + s.incumbents;
  into.bound_updates <- into.bound_updates + s.bound_updates;
  into.greedy_lp_solves <- into.greedy_lp_solves + s.greedy_lp_solves;
  into.greedy_candidates <- into.greedy_candidates + s.greedy_candidates;
  into.greedy_accepted <- into.greedy_accepted + s.greedy_accepted;
  into.rounding_attempts <- into.rounding_attempts + s.rounding_attempts;
  into.rounding_candidates <- into.rounding_candidates + s.rounding_candidates;
  into.rounding_repairs <- into.rounding_repairs + s.rounding_repairs;
  into.rounding_fallbacks <- into.rounding_fallbacks + s.rounding_fallbacks;
  into.service_requests <- into.service_requests + s.service_requests;
  into.service_admitted <- into.service_admitted + s.service_admitted;
  into.service_denied <- into.service_denied + s.service_denied;
  into.service_fallbacks <- into.service_fallbacks + s.service_fallbacks;
  into.service_reevals <- into.service_reevals + s.service_reevals;
  into.greedy_time <- into.greedy_time +. s.greedy_time;
  into.build_time <- into.build_time +. s.build_time;
  into.search_time <- into.search_time +. s.search_time;
  into.service_time <- into.service_time +. s.service_time

let to_string s =
  let base =
    Printf.sprintf
      "%d LP solves, %d simplex iters, %d refactorizations (%d fill, %d \
       drift, %d forced) | basis: %d ftran nnz, %d btran nnz, %d FT \
       updates, %d spike fill | pricing: %d list hits, %d sweeps | %d \
       nodes, %d incumbents, %d bound updates | greedy: %d LPs, %d \
       candidates, %d accepted | phases: greedy %.3fs, build %.3fs, \
       search %.3fs"
      s.lp_solves s.simplex_iterations s.refactorizations s.refactor_fill
      s.refactor_drift s.refactor_forced s.ftran_nnz s.btran_nnz
      s.basis_updates s.spike_fill s.pricing_hits s.pricing_sweeps
      s.bb_nodes s.incumbents s.bound_updates s.greedy_lp_solves
      s.greedy_candidates s.greedy_accepted s.greedy_time s.build_time
      s.search_time
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
         re-evals, %.3fs"
        s.service_requests s.service_admitted s.service_denied
        s.service_fallbacks s.service_reevals s.service_time
