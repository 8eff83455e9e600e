(* Every metric the benchmark emits, with its unit; the end-to-end ones
   also carry their direction and regression bound.  BENCHMARK.json
   lists exactly these (checked by the benchmark's tests). *)

type better = Lower | Higher

type end_to_end = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
}

let e name unit_ better bound = { name; unit_; better; bound }

let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "wall_s" "s" Lower 0.25;
    e "solve_s_p50" "s" Lower 0.25;
    e "arrivals_per_s" "1/s" Higher 0.25;
    e "proven_optimal" "count" Higher 0.25;
    e "bound_ratio" "ratio" Lower 0.1;
    e "objective_total" "revenue" Higher 0.2;
    e "acceptance_ratio" "ratio" Higher 0.15;
    e "revenue" "revenue" Higher 0.2;
    e "ok_ratio" "ratio" Higher 0.01;
    e "peak_rss_mb" "MB" Lower 0.2;
  ]

(* Per-layer metrics (name, unit, direction), grouped by layer
   (lina → lp → mip → graphs → tvnep → service → runtime).  They carry no
   bound; the direction says which way an improvement moves them. *)
let per_layer =
  [
    ("lina.factorize_ticks", "ticks", Lower);
    ("lina.ftran_ticks", "ticks", Lower);
    ("lina.btran_ticks", "ticks", Lower);
    ("lina.ftran_nnz", "count", Lower);
    ("lina.btran_nnz", "count", Lower);
    ("lina.spike_fill", "count", Lower);
    ("lp.std_form_s", "s", Lower);
    ("lp.root_lp_s", "s", Lower);
    ("lp.pivots", "count", Lower);
    ("lp.lp_solves", "count", Lower);
    ("lp.pivots_per_lp", "ratio", Lower);
    ("lp.refactorizations", "count", Lower);
    ("lp.refactor_forced", "count", Lower);
    ("lp.basis_updates", "count", Lower);
    ("lp.pricing_ticks", "ticks", Lower);
    ("lp.pricing_hit_ratio", "ratio", Higher);
    ("mip.bnb_s", "s", Lower);
    ("mip.nodes", "count", Higher);
    ("mip.nodes_per_s", "1/s", Higher);
    ("mip.incumbents", "count", Higher);
    ("mip.minor_words_per_node", "words", Lower);
    ("graphs.price_ticks", "ticks", Lower);
    ("tvnep.colgen.pricing_rounds", "count", Lower);
    ("tvnep.colgen.columns_generated", "count", Lower);
    ("tvnep.colgen.column_ratio", "ratio", Lower);
    ("tvnep.build_s", "s", Lower);
    ("tvnep.greedy_s", "s", Lower);
    ("tvnep.validate_s", "s", Lower);
    ("tvnep.colgen_s", "s", Lower);
    ("tvnep.greedy_lp_solves", "count", Lower);
    ("tvnep.rounding.attempts", "count", Lower);
    ("tvnep.rounding.repairs", "count", Lower);
    ("tvnep.rounding.fallbacks", "count", Lower);
    ("service.arrival_ticks_p50", "ticks", Lower);
    ("service.arrival_ticks_p99", "ticks", Lower);
    ("service.rung.exact", "count", Higher);
    ("service.rung.rounded", "count", Higher);
    ("service.rung.greedy", "count", Lower);
    ("service.rung.migrated", "count", Higher);
    ("service.rung.budget", "count", Lower);
    ("service.rung.priced", "count", Lower);
    ("service.exact_ticks", "ticks", Lower);
    ("service.rounded_ticks", "ticks", Lower);
    ("service.reconfigure_ticks", "ticks", Lower);
    ("service.greedy_ticks", "ticks", Lower);
    ("service.reevals", "count", Lower);
    ("service.spec_hit_ratio", "ratio", Higher);
    ("service.minor_words_per_arrival", "words", Lower);
    ("runtime.ticks_per_us", "ticks/us", Higher);
    ("runtime.trace_overhead_s", "s", Lower);
    ("runtime.descheduled_s", "s", Lower);
    ("runtime.unattributed_s", "s", Lower);
  ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let better_to_string = function Lower -> "lower" | Higher -> "higher"
