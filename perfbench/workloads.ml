(* The three workloads of the repo benchmark.

   A workload is a list of independent units (one flexibility sweep, one
   large instance, one service stream), all generated from the benchmark
   seed.  Every solve runs on the deterministic work clock against a
   fixed tick budget, so a unit does exactly the same work every time it
   runs: statuses, objectives, decisions and tick counts repeat bit for
   bit and are folded into per-operation fingerprints.  Wall time is the
   only thing that varies, and it is read from outside, around each call
   into the library. *)

let work_rate = Service.Engine.default_work_rate

(* A fresh deterministic budget worth [ticks] work ticks. *)
let tick_budget ticks =
  Runtime.Budget.create ~deterministic:work_rate
    ~time_limit:(float_of_int ticks /. work_rate)
    ()

let mip_params = { Mip.Branch_bound.default_params with jobs = 1 }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Per-request revenue d·Σc, the access-control objective coefficient. *)
let revenue_of inst i =
  let r = Tvnep.Instance.request inst i in
  r.Tvnep.Request.duration *. Tvnep.Request.total_node_demand r

(* {1 Configurations} *)

type offline = {
  o_requests : int;
  o_flexibilities : float list;
  o_ticks : int;  (** tick budget per solve *)
}

type grid = {
  g_rows : int;
  g_cols : int;
  g_leaves : int;
  g_requests : int;
  g_flexibility : float;
  g_ticks : int;
}

type service = {
  s_arrivals : int;
  s_arrival_rate : float;
  s_weibull_scale : float;
  s_flexibility : float;
  s_slice : float;
  s_exact_fraction : float;
}

type shape = Offline of offline | Grid of grid | Service of service

type config = {
  name : string;
  shape : shape;
  unit_s : float;
      (** typical seconds of one unit at the reference host speed (see
          [Calib]); sizes the unit count from [--seconds] *)
}

let offline_flex =
  {
    name = "offline-flex";
    shape =
      Offline
        {
          o_requests = 8;
          o_flexibilities = [ 0.0; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0 ];
          o_ticks = 1_500_000;
        };
    unit_s = 0.36;
  }

let grid_relax =
  {
    name = "grid-relax";
    shape =
      Grid
        {
          g_rows = 7;
          g_cols = 8;
          g_leaves = 4;
          g_requests = 2;
          g_flexibility = 2.0;
          g_ticks = 2_000_000_000;
        };
    unit_s = 0.093;
  }

let service_contended =
  {
    name = "service-contended";
    shape =
      Service
        {
          s_arrivals = 10;
          s_arrival_rate = 4.0;
          s_weibull_scale = 1.5;
          s_flexibility = 1.0;
          s_slice = 1e-3;
          s_exact_fraction = 0.3;
        };
    unit_s = 0.14;
  }

let workloads = [ offline_flex; grid_relax; service_contended ]

let find name = List.find_opt (fun c -> c.name = name) workloads

(* Units per run: enough to fill [seconds] at the typical unit cost, and
   at least two.  A function of the arguments only, so the same seed and
   length always give the same inputs. *)
let unit_count config ~seconds =
  max 2 (int_of_float (Float.ceil (seconds /. config.unit_s)))

(* {1 Inputs} *)

type unit_input =
  | Sweep of offline * Tvnep.Instance.t list  (** one instance per flexibility *)
  | Large of grid * Tvnep.Instance.t
  | Stream of service * Tvnep.Instance.t

(* One unit from its own instance seed. *)
let make_unit shape s =
  match shape with
  | Offline c ->
    let p = { Tvnep.Scenario.scaled with num_requests = c.o_requests } in
    Sweep (c, Tvnep.Scenario.sweep ~seed:s p ~flexibilities:c.o_flexibilities)
  | Grid c ->
    let p =
      {
        Tvnep.Scenario.scaled with
        grid_rows = c.g_rows;
        grid_cols = c.g_cols;
        star_leaves = c.g_leaves;
        num_requests = c.g_requests;
        flexibility = c.g_flexibility;
      }
    in
    Large (c, Tvnep.Scenario.generate (Workload.Rng.create s) p)
  | Service c ->
    let p =
      {
        Tvnep.Scenario.scaled with
        num_requests = c.s_arrivals;
        arrival_rate = c.s_arrival_rate;
        weibull_scale = c.s_weibull_scale;
        flexibility = c.s_flexibility;
      }
    in
    Stream (c, Tvnep.Scenario.generate (Workload.Rng.create s) p)

(* [count] units for one benchmark seed.  Instance seeds come from a
   splitmix stream of the benchmark seed, so units are independent of
   each other and of other benchmark seeds. *)
let generate config ~seed ~count =
  let rng = Workload.Rng.create (Int64.of_int seed) in
  List.init count (fun k ->
      (Printf.sprintf "u%d" k, make_unit config.shape (Workload.Rng.next_int64 rng)))

(* {1 Solves} *)

let offline_options ?prof c =
  Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Exact
    ~kind:Tvnep.Solver.Csigma ~seed_with_greedy:true ~mip:mip_params
    ~budget:(tick_budget c.o_ticks) ?prof ()

(* The three solves of one grid-relax instance: arc-form LP, path-form LP
   (column generation), path-form exact. *)
let grid_solves =
  Tvnep.Solver.
    [ ("arc-lp", Lp_only, Arc); ("path-lp", Lp_only, Path);
      ("path-exact", Exact, Path) ]

let grid_options ?prof c (method_, flow_form) =
  Tvnep.Solver.Options.make ~method_ ~flow_form ~kind:Tvnep.Solver.Csigma
    ~mip:mip_params ~budget:(tick_budget c.g_ticks) ?prof ()

let service_config ?prof c =
  Service.Engine.Config.make ~slice:c.s_slice
    ~exact_fraction:c.s_exact_fraction ~jobs:1 ~departures:true
    ~reconfigure:true ~rounding:true ?prof ()

(* {1 Running units} *)

(* The unit of [attempted]/[failed]: one solve, or one service
   arrival. *)
type op = {
  label : string;
  fp : string;  (** determinism fingerprint; compared between runs of a unit *)
  bad : bool;   (** failed on its own: status, validator, LP mismatch *)
}

(* Everything a run of some units produced, accumulated in order. *)
type acc = {
  mutable ops : op list;                 (** newest first *)
  mutable calls : float list;            (** wall s per timed call, newest first *)
  mutable ticks : int;
  mutable proven : int;
  mutable gap_num : float;
  mutable gap_den : float;
  mutable objective : float;
  mutable offered : int;                 (** requests / arrivals decided *)
  mutable accepted : int;
  mutable revenue : float;
  mutable unconverged : int;  (** path LPs that stopped before pricing converged *)
  stats : Runtime.Stats.t;
  mutable summaries : Service.Engine.summary list;  (** newest first *)
}

let create_acc () =
  {
    ops = [];
    calls = [];
    ticks = 0;
    proven = 0;
    gap_num = 0.0;
    gap_den = 0.0;
    objective = 0.0;
    offered = 0;
    accepted = 0;
    revenue = 0.0;
    unconverged = 0;
    stats = Runtime.Stats.create ();
    summaries = [];
  }

let status_s = Tvnep.Solver.status_to_string

let valid inst = function
  | None -> true
  | Some sol -> Result.is_ok (Tvnep.Validator.check inst sol)

let objective_of (o : Tvnep.Solver.outcome) =
  Option.value ~default:nan o.Tvnep.Solver.objective

let add_accepted a inst sol =
  List.iter
    (fun i ->
      a.accepted <- a.accepted + 1;
      a.revenue <- a.revenue +. revenue_of inst i)
    (Tvnep.Solution.accepted_indices sol)

(* A timed [Solver.run]; its counters land in the accumulator. *)
let solve a ?prof_for label inst options =
  let prof = Option.map (fun f -> f label) prof_for in
  let o, dt = timed (fun () -> Tvnep.Solver.run inst (options prof)) in
  a.calls <- dt :: a.calls;
  a.ticks <- a.ticks + o.Tvnep.Solver.ticks;
  Runtime.Stats.merge ~into:a.stats o.Tvnep.Solver.stats;
  if o.Tvnep.Solver.status = Tvnep.Solver.Optimal then a.proven <- a.proven + 1;
  (match o.Tvnep.Solver.objective with
   | Some v -> a.objective <- a.objective +. v
   | None -> ());
  o

let solve_fp label (o : Tvnep.Solver.outcome) =
  Printf.sprintf "%s %s %.17g %.17g %d %d" label
    (status_s o.Tvnep.Solver.status) (objective_of o) o.Tvnep.Solver.bound
    o.Tvnep.Solver.ticks o.Tvnep.Solver.nodes

(* Offline-flex: exact cΣ access control with greedy seeding on every
   cell of the sweep.  The greedy seed guarantees a solution, so
   [Budget_exhausted] is a failure.  The gap is pooled: Σ|bound − obj| /
   Σ|obj| over solves that proved a bound. *)
let run_sweep a ?prof_for unit_label c cells =
  List.iteri
    (fun cell inst ->
      let label = Printf.sprintf "%s.c%d" unit_label cell in
      let o = solve a ?prof_for label inst (fun prof -> offline_options ?prof c) in
      a.offered <- a.offered + Tvnep.Instance.num_requests inst;
      Option.iter (add_accepted a inst) o.Tvnep.Solver.solution;
      (match o.Tvnep.Solver.objective with
       | Some v when Float.is_finite o.Tvnep.Solver.gap ->
         a.gap_num <- a.gap_num +. Float.abs (o.Tvnep.Solver.bound -. v);
         a.gap_den <- a.gap_den +. Float.abs v
       | _ -> ());
      let bad =
        (match o.Tvnep.Solver.status with
         | Tvnep.Solver.Failed | Tvnep.Solver.Budget_exhausted -> true
         | _ -> o.Tvnep.Solver.solution = None)
        || not (valid inst o.Tvnep.Solver.solution)
      in
      a.ops <- { label; fp = solve_fp label o; bad } :: a.ops)
    cells

let rel_diff a b = Float.abs (a -. b) /. Float.max 1e-9 (Float.abs a)

(* Grid-relax: arc LP, path LP and path exact.  A converged path LP must
   equal the arc LP (1e-6 relative); one that stopped early (tailing
   off, reported [Feasible]) is counted, not failed.  The exact solution
   must exist and validate.  The gap is the root integrality gap,
   (arc LP − exact optimum) / exact optimum, pooled. *)
let run_large a ?prof_for unit_label c inst =
  let outcomes =
    List.map
      (fun (name, m, ff) ->
        let label = Printf.sprintf "%s.%s" unit_label name in
        (label, solve a ?prof_for label inst (fun prof -> grid_options ?prof c (m, ff))))
      grid_solves
  in
  let arc, path, exact =
    match List.map snd outcomes with
    | [ arc; path; exact ] -> (arc, path, exact)
    | _ -> assert false
  in
  let n = Tvnep.Instance.num_requests inst in
  a.offered <- a.offered + n;
  Option.iter (add_accepted a inst) exact.Tvnep.Solver.solution;
  if Float.is_finite (objective_of exact) && Float.is_finite (objective_of arc)
  then begin
    a.gap_num <- a.gap_num +. (objective_of arc -. objective_of exact);
    a.gap_den <- a.gap_den +. objective_of exact
  end;
  let converged = path.Tvnep.Solver.status = Tvnep.Solver.Optimal in
  if not converged then a.unconverged <- a.unconverged + 1;
  let lp_agree = rel_diff (objective_of arc) (objective_of path) <= 1e-6 in
  List.iter
    (fun (label, o) ->
      let bad =
        (match o.Tvnep.Solver.status with
         | Tvnep.Solver.Failed | Tvnep.Solver.Budget_exhausted -> true
         | _ -> false)
        || (not (valid inst o.Tvnep.Solver.solution))
        || (o == exact && o.Tvnep.Solver.solution = None)
        || (o == path && converged && not lp_agree)
      in
      a.ops <- { label; fp = solve_fp label o; bad } :: a.ops)
    outcomes

(* Service-contended: one [Engine.serve] of the stream.  Each arrival is
   an operation; a final committed state the validator rejects fails
   every arrival of the stream.  [proven] counts arrivals the exact rung
   decided; the gap is the revenue shortfall against the offered
   revenue (admitting everything bounds what any policy can earn). *)
let run_stream a ?prof_for label c inst =
  let prof = Option.map (fun f -> f label) prof_for in
  let s, dt =
    timed (fun () -> Service.Engine.serve ~config:(service_config ?prof c) inst)
  in
  a.calls <- dt :: a.calls;
  a.summaries <- s :: a.summaries;
  a.ticks <- a.ticks + s.Service.Engine.total_ticks;
  Runtime.Stats.merge ~into:a.stats s.Service.Engine.stats;
  let state_ok =
    Result.is_ok (Tvnep.Validator.check inst s.Service.Engine.solution)
  in
  Array.iter
    (fun (r : Service.Engine.record) ->
      if r.Service.Engine.event = Service.Event.Arrival then begin
        let req = r.Service.Engine.request in
        let offered = revenue_of inst req in
        a.offered <- a.offered + 1;
        a.gap_den <- a.gap_den +. offered;
        if r.Service.Engine.admitted then a.accepted <- a.accepted + 1
        else a.gap_num <- a.gap_num +. offered;
        if r.Service.Engine.rung = Service.Engine.Exact then
          a.proven <- a.proven + 1;
        let op_label = Printf.sprintf "%s.r%d" label req in
        let fp =
          Printf.sprintf "%s %b %s %d %Ld %s" op_label r.Service.Engine.admitted
            (Service.Engine.rung_to_string r.Service.Engine.rung)
            r.Service.Engine.ticks
            (Int64.bits_of_float r.Service.Engine.t_start)
            (String.concat "," (List.map string_of_int r.Service.Engine.moved))
        in
        a.ops <- { label = op_label; fp; bad = not state_ok } :: a.ops
      end)
    s.Service.Engine.records;
  a.revenue <- a.revenue +. s.Service.Engine.revenue;
  a.objective <- a.objective +. s.Service.Engine.revenue

let run_unit a ?prof_for (label, u) =
  match u with
  | Sweep (c, cells) -> run_sweep a ?prof_for label c cells
  | Large (c, inst) -> run_large a ?prof_for label c inst
  | Stream (c, inst) -> run_stream a ?prof_for label c inst

let run_units ?prof_for units =
  let a = create_acc () in
  List.iter (run_unit a ?prof_for) units;
  a

let ops a = Array.of_list (List.rev a.ops)
let calls a = Array.of_list (List.rev a.calls)
let wall a = List.fold_left ( +. ) 0.0 a.calls

(* The untimed warm-up call of set-up, on a fixed reference input so its
   cost does not depend on the seed: the workload's own operation, cut
   short, so lazy initialisation and the first heap growth happen before
   timing starts. *)
let warm_up config =
  match make_unit config.shape 0x5eedL with
  | Sweep (c, cells) ->
    List.iteri
      (fun i inst ->
        if i < 2 then ignore (Tvnep.Solver.run inst (offline_options c)))
      cells
  | Large (c, inst) ->
    ignore
      (Tvnep.Solver.run inst
         (grid_options c (Tvnep.Solver.Lp_only, Tvnep.Solver.Path)))
  | Stream (c, inst) ->
    let n = min 12 (Tvnep.Instance.num_requests inst) in
    let prefix =
      Tvnep.Instance.with_requests inst
        (Array.sub inst.Tvnep.Instance.requests 0 n)
        ?node_mappings:
          (Option.map (fun m -> Array.sub m 0 n) inst.Tvnep.Instance.node_mappings)
        ()
    in
    ignore (Service.Engine.serve ~config:(service_config c) prefix)

(* Operations of [later] whose fingerprint differs from the same
   operation in [reference] (all of them when the shapes differ). *)
let mismatches ~reference later =
  if Array.length reference <> Array.length later then Array.length later
  else begin
    let n = ref 0 in
    Array.iteri (fun i op -> if op.fp <> reference.(i).fp then incr n) later;
    !n
  end

let fingerprint ops =
  Digest.to_hex
    (Digest.string (String.concat "\n" (Array.to_list (Array.map (fun o -> o.fp) ops))))
