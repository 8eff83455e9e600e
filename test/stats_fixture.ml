(* A [Runtime.Stats.t] with a distinct value in every field, and its
   encoding as recorded before the field table replaced the hand-written
   codec.  A swapped getter, a dropped table entry or a reordered entry
   changes [merge]'s result, the decoded record or the encoded bytes. *)

(* Field i (declaration order, from 1) holds [k * i]. *)
let distinct k : Runtime.Stats.t =
  {
    simplex_iterations = k * 1;
    refactorizations = k * 2;
    lp_solves = k * 3;
    ftran_nnz = k * 4;
    btran_nnz = k * 5;
    basis_updates = k * 6;
    spike_fill = k * 7;
    refactor_fill = k * 8;
    refactor_drift = k * 9;
    refactor_forced = k * 10;
    pricing_hits = k * 11;
    pricing_sweeps = k * 12;
    bb_nodes = k * 13;
    incumbents = k * 14;
    bound_updates = k * 15;
    greedy_lp_solves = k * 16;
    greedy_candidates = k * 17;
    greedy_accepted = k * 18;
    rounding_attempts = k * 19;
    rounding_candidates = k * 20;
    rounding_repairs = k * 21;
    rounding_fallbacks = k * 22;
    service_requests = k * 23;
    service_admitted = k * 24;
    service_denied = k * 25;
    service_fallbacks = k * 26;
    service_reevals = k * 27;
  }

(* [Statsutil.Json.to_compact_string (Runtime.Stats.to_json (distinct 1))]. *)
let encoded =
  {|{"simplex_iterations":1,"refactorizations":2,"lp_solves":3,"ftran_nnz":4,"btran_nnz":5,"basis_updates":6,"spike_fill":7,"refactor_fill":8,"refactor_drift":9,"refactor_forced":10,"pricing_hits":11,"pricing_sweeps":12,"bb_nodes":13,"incumbents":14,"bound_updates":15,"greedy_lp_solves":16,"greedy_candidates":17,"greedy_accepted":18,"rounding_attempts":19,"rounding_candidates":20,"rounding_repairs":21,"rounding_fallbacks":22,"service_requests":23,"service_admitted":24,"service_denied":25,"service_fallbacks":26,"service_reevals":27}|}

(* Field-by-field equality (structural: the fixtures hold no nan). *)
let stats =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Runtime.Stats.to_string s))
    ( = )
