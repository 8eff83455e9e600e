module B = Runtime.Budget
module Rstats = Runtime.Stats
module Span = Runtime.Span
module Instance = Tvnep.Instance
module Request = Tvnep.Request
module Solution = Tvnep.Solution
module Solver = Tvnep.Solver
module Objective = Tvnep.Objective
module Validator = Tvnep.Validator
module Json = Statsutil.Json

type rung = Exact | Rounded | Greedy | Budget | Priced | Migrated

let rung_to_string = function
  | Exact -> "exact"
  | Rounded -> "rounded"
  | Greedy -> "greedy"
  | Budget -> "budget"
  | Priced -> "priced"
  | Migrated -> "migrated"

let rung_of_string = function
  | "exact" -> Some Exact
  | "rounded" -> Some Rounded
  | "greedy" -> Some Greedy
  | "budget" -> Some Budget
  | "priced" -> Some Priced
  | "migrated" -> Some Migrated
  | _ -> None

type record = {
  request : int;
  name : string;
  time : float;
  event : Event.kind;
  admitted : bool;
  rung : rung;
  exact_status : Tvnep.Solver.status option;
  greedy_status : Tvnep.Solver.status option;
  revenue : float;
  priced_cost : float;
  t_start : float;
  t_end : float;
  ticks : int;
  moved : int list;
}

type summary = {
  records : record array;
  solution : Tvnep.Solution.t;
  events : int;
  accepted : int;
  denied : int;
  departed : int;
  migrations : int;
  acceptance_ratio : float;
  revenue : float;
  admitted_exact : int;
  admitted_rounded : int;
  admitted_greedy : int;
  admitted_migrated : int;
  denied_exact : int;
  denied_rounded : int;
  denied_greedy : int;
  denied_budget : int;
  denied_priced : int;
  ticks_p50 : int;
  ticks_p99 : int;
  total_ticks : int;
  runtime : float;
  node_prices : float array;
  link_prices : float array;
  stats : Runtime.Stats.t;
}

(* Same rate as the bench harness's deterministic work clock, so service
   tick counts are comparable with the solver benches. *)
let default_work_rate = 2e9

module Config = struct
  type t = {
    kind : Tvnep.Solver.model_kind;
    use_cuts : bool;
    pairwise_cuts : bool;
    mip : Mip.Branch_bound.params;
    slice : float;
    exact_fraction : float;
    time_limit : float;
    deterministic : float option;
    departures : bool;
    reconfigure : bool;
    reconfigure_limit : int;
    move_cost : float;
    rounding : bool;
    pricing : bool;
    price : Pricing.params;
    prof : Runtime.Span.recorder option;
  }

  let make ?(kind = Solver.Csigma) ?(use_cuts = true) ?(pairwise_cuts = true)
      ?(mip = Mip.Branch_bound.default_params) ?(slice = 0.5)
      ?(exact_fraction = 0.7) ?(time_limit = infinity)
      ?(deterministic = Some default_work_rate) ?(jobs = 1) ?(departures = true)
      ?(reconfigure = false) ?(reconfigure_limit = 2)
      ?(move_cost = 0.1) ?(rounding = false) ?(pricing = false)
      ?(price = Pricing.default_params) ?prof () =
    if slice <= 0.0 || not (Float.is_finite slice) then
      invalid_arg "Engine.Config.make: non-positive slice";
    if exact_fraction < 0.0 || exact_fraction > 1.0 then
      invalid_arg "Engine.Config.make: exact_fraction outside [0, 1]";
    if jobs < 1 then invalid_arg "Engine.Config.make: non-positive jobs";
    if time_limit <= 0.0 then
      invalid_arg "Engine.Config.make: non-positive time_limit";
    if reconfigure_limit < 0 then
      invalid_arg "Engine.Config.make: negative reconfigure_limit";
    if move_cost < 0.0 || not (Float.is_finite move_cost) then
      invalid_arg "Engine.Config.make: negative move_cost";
    {
      kind;
      use_cuts;
      pairwise_cuts;
      mip;
      slice;
      exact_fraction;
      time_limit;
      deterministic;
      departures;
      reconfigure;
      reconfigure_limit;
      move_cost;
      rounding;
      pricing;
      price;
      prof;
    }

  let default = make ()
end

(* The decision for one arrival, computed against the committed state.
   [p_solution] is the full proposed committed state on the original
   instance (committed assignments with the participants' re-optimized
   flows and the arrival's schedule), already validated — applying it is
   a plain array replacement.  [p_moved] lists the committed requests
   whose start the proposal migrates. *)
type proposal = {
  p_admit : bool;
  p_rung : rung;
  p_exact : Solver.status option;
  p_greedy : Solver.status option;
  p_solution : Solution.t option;
  p_priced_cost : float;
  p_moved : int list;
}

let deny ?exact ?greedy ?(priced_cost = nan) rung =
  {
    p_admit = false;
    p_rung = rung;
    p_exact = exact;
    p_greedy = greedy;
    p_solution = None;
    p_priced_cost = priced_cost;
    p_moved = [];
  }

(* Evaluate one arrival against the committed state on its slice
   [budget].  Reads the state and writes only [stats] (solver counters);
   the serve loop decides what commits.  [now] is the arrival's event
   time; [prices] is the pricing state when the pricing policy is on. *)
let evaluate (cfg : Config.t) inst (assignments : Solution.assignment array)
    committed req ~now ~prices ~budget ~stats =
  let prof = cfg.Config.prof in
  (* Every rung searches serially and silently, limited only by its share
     of the slice [budget]. *)
  let mip =
    {
      cfg.Config.mip with
      Mip.Branch_bound.time_limit = infinity;
      jobs = 1;
      log_every = 0;
    }
  in
  Span.with_ prof budget "arrival" @@ fun () ->
  try
    let r = Instance.request inst req in
    (* The evaluation instance: every committed request — window narrowed
       to exactly its committed interval and schedule pinned, so the
       solver may re-route its flows but never move or evict it — plus
       the arrival with its window clipped to the present. *)
    let idxs = committed @ [ req ] in
    (* Request [i] with its window replaced. *)
    let rewindow i ~start_min ~end_max =
      let r = Instance.request inst i in
      Request.make ~name:r.Request.name ~graph:r.Request.graph
        ~node_demand:r.Request.node_demand ~link_demand:r.Request.link_demand
        ~duration:r.Request.duration ~start_min ~end_max
    in
    (* Request [i]'s own window, clipped to the present. *)
    let from_now i =
      let r = Instance.request inst i in
      rewindow i
        ~start_min:(Float.max r.Request.start_min now)
        ~end_max:r.Request.end_max
    in
    let narrowed i =
      if i = req then from_now i
      else
        let t = assignments.(i).Solution.t_start in
        rewindow i ~start_min:t
          ~end_max:(t +. (Instance.request inst i).Request.duration)
    in
    let mappings =
      Array.of_list
        (List.map (fun i -> Option.get (Instance.node_mapping inst i)) idxs)
    in
    let ev =
      Instance.with_requests inst
        (Array.of_list (List.map narrowed idxs))
        ~node_mappings:mappings ()
    in
    let cand_pos = List.length committed in
    let pinned =
      List.mapi (fun pos i -> (pos, assignments.(i).Solution.t_start)) committed
    in
    (* Lift an evaluation solution back onto the original instance: the
       participants' assignments replace their committed ones (joint flow
       re-optimization re-routes everyone), the rest stay rejected. *)
    let lift (sol : Solution.t) =
      let out = Array.copy assignments in
      List.iteri
        (fun pos i ->
          let a = sol.Solution.assignments.(pos) in
          let r = Instance.request inst i in
          out.(i) <-
            { a with Solution.t_end = a.Solution.t_start +. r.Request.duration })
        idxs;
      let s = { Solution.assignments = out; objective = 0.0 } in
      { s with Solution.objective = Solution.access_control_value inst s }
    in
    (* Admission gate: the proposed full state must pass the independent
       validator before it may commit. *)
    let gate (sol : Solution.t) =
      if sol.Solution.assignments.(cand_pos).Solution.accepted then begin
        let lifted = lift sol in
        Span.with_ prof budget "validate" @@ fun () ->
        match Validator.check inst lifted with
        | Ok () -> Some lifted
        | Error _ -> None
      end
      else None
    in
    (* The tail every admitting rung shares: the admission gate, then the
       pricing gate — revenue must cover the priced cost of the admitted
       assignment, else the arrival is denied at the [Priced] rung.
       [None] when the admission gate refuses [sol]; [moved] lists the
       committed requests the lifted state migrates. *)
    let settle ~rung ?exact ?greedy ?(moved = fun _ -> []) sol =
      match gate sol with
      | None -> None
      | Some lifted ->
        let price =
          match prices with
          | None -> Ok nan
          | Some pr ->
            let cost =
              Pricing.assignment_cost pr inst req
                lifted.Solution.assignments.(req)
            in
            let revenue = r.Request.duration *. Request.total_node_demand r in
            if revenue +. 1e-9 < cost then Error cost else Ok cost
        in
        Some
          (match price with
          | Ok cost ->
            {
              p_admit = true;
              p_rung = rung;
              p_exact = exact;
              p_greedy = greedy;
              p_solution = Some lifted;
              p_priced_cost = cost;
              p_moved = moved lifted;
            }
          | Error cost -> deny ?exact ?greedy ~priced_cost:cost Priced)
    in
    (* Reconfiguration rung: a bounded set of committed requests that have
       not started yet ([t⁺ > now]) gets its windows re-opened and its
       acceptance forced, the candidate stays free, and the objective
       charges [move_cost] per unit of schedule displacement — an
       admission enabled by migrations must pay for them in-model.  Only
       attempted on a {e proven} denial of the pinned solve. *)
    let attempt_reconfigure ~exact () =
      if
        (not cfg.Config.reconfigure)
        || cfg.Config.reconfigure_limit = 0
        || B.remaining budget <= 0.0
      then None
      else begin
        let movable =
          List.filter
            (fun i -> assignments.(i).Solution.t_start > now +. 1e-9)
            committed
        in
        let movable =
          List.sort
            (fun a b ->
              compare
                (assignments.(a).Solution.t_start, a)
                (assignments.(b).Solution.t_start, b))
            movable
        in
        let movable =
          List.filteri (fun k _ -> k < cfg.Config.reconfigure_limit) movable
        in
        if movable = [] then None
        else begin
          let widened i = if List.mem i movable then from_now i else narrowed i in
          let ev2 =
            Instance.with_requests inst
              (Array.of_list (List.map widened idxs))
              ~node_mappings:mappings ()
          in
          let forced = ref [] and pinned2 = ref [] and reference = ref [] in
          List.iteri
            (fun pos i ->
              if i <> req then
                if List.mem i movable then begin
                  forced := pos :: !forced;
                  reference :=
                    (pos, assignments.(i).Solution.t_start) :: !reference
                end
                else
                  pinned2 := (pos, assignments.(i).Solution.t_start) :: !pinned2)
            idxs;
          let rbudget =
            B.sub
              ~time_limit:
                (cfg.Config.exact_fraction
                *. Float.max 0.0 (B.remaining budget))
              budget
          in
          let ro =
            Span.with_ prof budget "reconfigure" @@ fun () ->
            Solver.run ev2
              (Solver.Options.make ~method_:Solver.Exact
                 ~kind:cfg.Config.kind ~use_cuts:cfg.Config.use_cuts
                 ~pairwise_cuts:cfg.Config.pairwise_cuts ~mip ~budget:rbudget
                 ~pinned:(List.rev !pinned2) ~forced:(List.rev !forced)
                 ~objective:
                   (Objective.Access_with_move_cost
                      {
                        weight = cfg.Config.move_cost;
                        reference = List.rev !reference;
                      })
                 ?prof ())
          in
          Rstats.merge ~into:stats ro.Solver.stats;
          let moved (lifted : Solution.t) =
            List.filter
              (fun i ->
                Float.abs
                  (lifted.Solution.assignments.(i).Solution.t_start
                  -. assignments.(i).Solution.t_start)
                > 1e-9)
              movable
          in
          match (ro.Solver.status, ro.Solver.solution) with
          | (Solver.Optimal | Solver.Feasible), Some sol ->
            settle ~rung:Migrated ?exact ~moved sol
          | _ -> None
        end
      end
    in
    (* Randomized-rounding rung: solve the cΣ LP relaxation of the pinned
       evaluation instance, decompose it into a convex combination of
       integral schedules, and round with bounded repair
       ([Solver.Rounded]).  Runs between exact and greedy when the exact
       rung was inconclusive.  The rounding seed is a function of the
       request index alone, so a decision does not depend on what was
       evaluated before it.  The rung gets half of whatever remains of
       the slice, leaving the other half for the greedy fallback when
       rounding produces nothing. *)
    let attempt_rounded ~exact () =
      if (not cfg.Config.rounding) || B.remaining budget <= 0.0 then None
      else begin
        let rbudget =
          B.sub ~time_limit:(0.5 *. Float.max 0.0 (B.remaining budget)) budget
        in
        let rounding =
          {
            Tvnep.Rounding.default_params with
            seed = Int64.of_int (0x5eed1 + req);
          }
        in
        match
          Span.with_ prof budget "rounded" @@ fun () ->
          Solver.run ev
            (Solver.Options.make ~method_:Solver.Rounded ~kind:cfg.Config.kind
               ~use_cuts:cfg.Config.use_cuts
               ~pairwise_cuts:cfg.Config.pairwise_cuts ~mip ~budget:rbudget
               ~pinned ~rounding ?prof ())
        with
        | exception Invalid_argument _ -> None
        | ro -> (
          Rstats.merge ~into:stats ro.Solver.stats;
          if ro.Solver.status = Solver.Infeasible then
            (* The LP relaxation of the pinned instance is infeasible, so
               no completion can admit the arrival: a proven denial,
               cheaper than the exact rung's. *)
            Some (deny ?exact Rounded)
          else
            Option.bind ro.Solver.solution (fun sol ->
                settle ~rung:Rounded ?exact sol))
      end
    in
    (* Rung 1: exact branch-and-bound on a fraction of the slice. *)
    let exact_budget =
      B.sub ~time_limit:(cfg.Config.exact_fraction *. cfg.Config.slice) budget
    in
    let xo =
      Span.with_ prof budget "exact" @@ fun () ->
      Solver.run ev
        (Solver.Options.make ~method_:Solver.Exact ~kind:cfg.Config.kind
           ~use_cuts:cfg.Config.use_cuts
           ~pairwise_cuts:cfg.Config.pairwise_cuts ~mip ~budget:exact_budget
           ~pinned ?prof ())
    in
    Rstats.merge ~into:stats xo.Solver.stats;
    let exact = Some xo.Solver.status in
    let exact_decision =
      match (xo.Solver.status, xo.Solver.solution) with
      | (Solver.Optimal | Solver.Feasible), Some sol ->
        settle ~rung:Exact ?exact sol
      | _ -> None
    in
    match exact_decision with
    | Some p -> p
    | None ->
      if
        (* A proved optimum that rejects the arrival is a proven denial:
           with every committed request pinned, the objective differs
           from "admit the arrival" only in the arrival's own term.  A
           re-embedding of not-yet-started commitments may still flip it
           — the reconfiguration rung's job. *)
        xo.Solver.status = Solver.Optimal
      then
        match attempt_reconfigure ~exact () with
        | Some p -> p
        | None -> deny ?exact Exact
      else begin
        (* Between exact and greedy: the randomized-rounding rung (when
           configured) gets the first shot at an inconclusive exact
           outcome; its failures fall through to the heuristic. *)
        match attempt_rounded ~exact () with
        | Some p -> p
        | None ->
          if B.remaining budget <= 0.0 then
            (* Slice gone before the fallback could run. *)
            deny ?exact Budget
          else begin
            (* Greedy fallback on the rest of the slice.  The heuristic
               raises when even the committed preplacements cannot be
               re-established — with a validator-gated committed state
               that only happens when the slice dies under its
               feasibility LP, so treat it as budget exhaustion. *)
            match
              Span.with_ prof budget "greedy" @@ fun () ->
              Solver.run ev
                (Solver.Options.make ~method_:Solver.Greedy ~budget
                   ~pinned ?prof ())
            with
            | exception Invalid_argument _ ->
              deny ?exact ~greedy:Solver.Budget_exhausted Budget
            | go -> (
              Rstats.merge ~into:stats go.Solver.stats;
              let greedy = Some go.Solver.status in
              match
                Option.bind go.Solver.solution (fun sol ->
                    settle ~rung:Greedy ?exact ?greedy sol)
              with
              | Some p -> p
              | None ->
                (* Final rung: denial — by the heuristic's verdict, or
                   because the slice died under it. *)
                let rung =
                  if go.Solver.status = Solver.Budget_exhausted then Budget
                  else Greedy
                in
                deny ?exact ?greedy rung)
          end
      end
  with _ ->
    (* Defensive: an unexpected solver failure denies the arrival instead
       of taking the whole stream down.  Deterministic — the same state
       fails the same way every time. *)
    deny ~greedy:Solver.Failed Greedy

(* Nearest-rank percentile of a sorted array. *)
let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    sorted.(min (n - 1)
              (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let validate_events inst events =
  let k = Instance.num_requests inst in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (ev : Event.t) ->
      if ev.Event.request < 0 || ev.Event.request >= k then
        invalid_arg "Engine.serve: event request out of range";
      if not (Float.is_finite ev.Event.time) then
        invalid_arg "Engine.serve: non-finite event time";
      if ev.Event.kind = Event.Arrival then begin
        if Hashtbl.mem seen ev.Event.request then
          invalid_arg "Engine.serve: request arrives twice";
        Hashtbl.replace seen ev.Event.request ()
      end)
    events

let serve ?(config = Config.default) ?on_commit ?events inst =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Engine.serve: fixed node mappings required";
  let events =
    match events with
    | Some evs -> Event.normalize evs
    | None -> Event.arrivals inst
  in
  validate_events inst events;
  let global =
    match config.Config.deterministic with
    | Some rate ->
      B.create ~deterministic:rate ~time_limit:config.Config.time_limit ()
    | None -> B.create ~time_limit:config.Config.time_limit ()
  in
  let stats = Rstats.create () in
  let t0 = B.elapsed global in
  let k = Instance.num_requests inst in
  let assignments =
    Array.init k (fun i -> Solution.rejected (Instance.request inst i))
  in
  let committed = ref [] in
  let records = ref [] in
  (* Lifecycle state alongside the assignments: the rung that admitted
     each committed request (reported again by its departure record) and
     the time its capacity returns (endogenous departure). *)
  let admit_rung = Array.make k Exact in
  let release_at = Array.make k None in
  let price_state =
    if config.Config.pricing then
      Some (Pricing.create inst config.Config.price)
    else None
  in
  let current_solution () =
    let s = { Solution.assignments = Array.copy assignments; objective = 0.0 } in
    { s with Solution.objective = Solution.access_control_value inst s }
  in
  let reprice () =
    match price_state with
    | Some pr -> Pricing.update pr inst (current_solution ())
    | None -> ()
  in
  (* Release one committed request, validator-gated: the post-release
     state must equal the committed one minus exactly this assignment and
     still be feasible on its own.  A failure here is an engine invariant
     violation — the committed state was gated on commit — so it is fatal
     rather than a denial. *)
  let release ~time req =
    let before = current_solution () in
    let after = Solution.release inst before req in
    (match Validator.check_release inst ~before ~after ~released:req with
    | Ok () -> ()
    | Error es ->
      failwith
        (Printf.sprintf "Engine.serve: release of request %d rejected: %s" req
           (String.concat "; " es)));
    let released = assignments.(req) in
    assignments.(req) <- Solution.rejected (Instance.request inst req);
    committed := List.filter (fun i -> i <> req) !committed;
    release_at.(req) <- None;
    reprice ();
    records :=
      {
        request = req;
        name = (Instance.request inst req).Request.name;
        time;
        event = Event.Departure;
        admitted = false;
        rung = admit_rung.(req);
        exact_status = None;
        greedy_status = None;
        revenue = 0.0;
        priced_cost = nan;
        t_start = released.Solution.t_start;
        t_end = released.Solution.t_end;
        ticks = 0;
        moved = [];
      }
      :: !records
  in
  (* Endogenous departures: every committed request whose interval has
     closed by [now] releases, ordered by (departure time, request) so
     the record stream stays total-ordered. *)
  let process_due now =
    let due =
      List.filter_map
        (fun i ->
          match release_at.(i) with
          | Some t when t <= now +. 1e-12 -> Some (t, i)
          | _ -> None)
        !committed
    in
    List.iter (fun (t, i) -> release ~time:t i) (List.sort compare due)
  in
  (* One pass over the stream, in event order: release whatever departed
     by the event's time, then apply the event.  Each arrival is decided
     once, against the live committed state and prices, on a slice of the
     global budget; spans and ticks land directly on the global clock. *)
  List.iter
    (fun (ev : Event.t) ->
      let req = ev.Event.request in
      let r = Instance.request inst req in
      process_due ev.Event.time;
      match ev.Event.kind with
      | Event.Departure ->
        (* Exogenous departure (cancellation): release if the request
           still holds capacity; a departure for a denied or
           already-departed request is a no-op. *)
        if config.Config.departures && assignments.(req).Solution.accepted then
          release ~time:ev.Event.time req
      | Event.Arrival ->
        let ticks0 = B.ticks global in
        let proposal =
          if B.remaining global <= 0.0 then deny Budget
          else
            evaluate config inst assignments !committed req ~now:ev.Event.time
              ~prices:price_state
              ~budget:(B.sub ~time_limit:config.Config.slice global)
              ~stats
        in
        let ticks = B.ticks global - ticks0 in
        if proposal.p_greedy <> None then
          stats.Rstats.service_fallbacks <- stats.Rstats.service_fallbacks + 1;
        if proposal.p_admit then begin
          let sol = Option.get proposal.p_solution in
          Array.blit sol.Solution.assignments 0 assignments 0 k;
          committed := !committed @ [ req ];
          admit_rung.(req) <- proposal.p_rung;
          if config.Config.departures then begin
            release_at.(req) <- Some assignments.(req).Solution.t_end;
            (* Migrations move schedules — their departures move with
               them. *)
            List.iter
              (fun j -> release_at.(j) <- Some assignments.(j).Solution.t_end)
              proposal.p_moved
          end;
          reprice ();
          stats.Rstats.service_admitted <- stats.Rstats.service_admitted + 1;
          match on_commit with
          | Some f -> f req (current_solution ())
          | None -> ()
        end
        else stats.Rstats.service_denied <- stats.Rstats.service_denied + 1;
        records :=
          {
            request = req;
            name = r.Request.name;
            time = ev.Event.time;
            event = Event.Arrival;
            admitted = proposal.p_admit;
            rung = proposal.p_rung;
            exact_status = proposal.p_exact;
            greedy_status = proposal.p_greedy;
            revenue =
              (if proposal.p_admit then
                 r.Request.duration *. Request.total_node_demand r
               else 0.0);
            priced_cost = proposal.p_priced_cost;
            t_start =
              (if proposal.p_admit then assignments.(req).Solution.t_start
               else nan);
            t_end =
              (if proposal.p_admit then assignments.(req).Solution.t_end
               else nan);
            ticks;
            moved = proposal.p_moved;
          }
          :: !records)
    events;
  let records = Array.of_list (List.rev !records) in
  let arrivals_only =
    Array.of_list
      (List.filter
         (fun (r : record) -> r.event = Event.Arrival)
         (Array.to_list records))
  in
  let count p =
    Array.fold_left
      (fun n (r : record) -> if p r then n + 1 else n)
      0 arrivals_only
  in
  let n_arrivals = Array.length arrivals_only in
  let accepted = count (fun r -> r.admitted) in
  let revenue =
    Array.fold_left
      (fun acc (r : record) -> acc +. r.revenue)
      0.0 arrivals_only
  in
  let tick_values = Array.map (fun (r : record) -> r.ticks) arrivals_only in
  Array.sort compare tick_values;
  let runtime = B.elapsed global -. t0 in
  stats.Rstats.service_requests <- stats.Rstats.service_requests + n_arrivals;
  {
    records;
    solution = current_solution ();
    events = Array.length records;
    accepted;
    denied = n_arrivals - accepted;
    departed =
      Array.fold_left
        (fun n (r : record) -> if r.event = Event.Departure then n + 1 else n)
        0 records;
    migrations =
      Array.fold_left
        (fun n (r : record) -> n + List.length r.moved)
        0 records;
    acceptance_ratio =
      (if n_arrivals = 0 then 0.0
       else float_of_int accepted /. float_of_int n_arrivals);
    revenue;
    admitted_exact = count (fun r -> r.admitted && r.rung = Exact);
    admitted_rounded = count (fun r -> r.admitted && r.rung = Rounded);
    admitted_greedy = count (fun r -> r.admitted && r.rung = Greedy);
    admitted_migrated = count (fun r -> r.admitted && r.rung = Migrated);
    denied_exact = count (fun r -> (not r.admitted) && r.rung = Exact);
    denied_rounded = count (fun r -> (not r.admitted) && r.rung = Rounded);
    denied_greedy = count (fun r -> (not r.admitted) && r.rung = Greedy);
    denied_budget = count (fun r -> (not r.admitted) && r.rung = Budget);
    denied_priced = count (fun r -> (not r.admitted) && r.rung = Priced);
    ticks_p50 = percentile 0.50 tick_values;
    ticks_p99 = percentile 0.99 tick_values;
    total_ticks =
      Array.fold_left (fun acc (r : record) -> acc + r.ticks) 0 records;
    runtime;
    node_prices =
      (match price_state with Some p -> Pricing.node_prices p | None -> [||]);
    link_prices =
      (match price_state with Some p -> Pricing.link_prices p | None -> [||]);
    stats;
  }

(* ------------------------------------------------------------------ *)
(* Versioned JSON encoding                                            *)
(* ------------------------------------------------------------------ *)

let schema_version = 2

let status_opt_to_json = function
  | None -> Json.Null
  | Some s -> Json.Str (Solver.status_to_string s)

let record_to_json r =
  Json.Obj
    [
      ("schema_version", Json.Num (float_of_int schema_version));
      ("request", Json.Num (float_of_int r.request));
      ("name", Json.Str r.name);
      ("time", Json.of_float_exact r.time);
      ("event", Json.Str (Event.kind_to_string r.event));
      ("admitted", Json.Bool r.admitted);
      ("rung", Json.Str (rung_to_string r.rung));
      ("exact_status", status_opt_to_json r.exact_status);
      ("greedy_status", status_opt_to_json r.greedy_status);
      ("revenue", Json.of_float_exact r.revenue);
      ("priced_cost", Json.of_float_exact r.priced_cost);
      ("t_start", Json.of_float_exact r.t_start);
      ("t_end", Json.of_float_exact r.t_end);
      ("ticks", Json.Num (float_of_int r.ticks));
      ( "moved",
        Json.List (List.map (fun i -> Json.Num (float_of_int i)) r.moved) );
    ]

let ( let* ) = Result.bind

let record_of_json doc =
  let floatf name = Result.bind (Json.field name doc) Json.to_float_exact in
  let intf name =
    let* v = Json.field name doc in
    Result.map_error (fun e -> name ^ ": " ^ e) (Json.to_int v)
  in
  let boolf name =
    match Json.member name doc with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "missing boolean %S" name)
  in
  let status_opt name =
    match Json.member name doc with
    | None | Some Json.Null -> Ok None
    | Some (Json.Str s) -> (
      match Solver.status_of_string s with
      | Some st -> Ok (Some st)
      | None -> Error (Printf.sprintf "%s: unknown status %S" name s))
    | Some _ -> Error (Printf.sprintf "%s: expected a string or null" name)
  in
  let* version = intf "schema_version" in
  if version <> 1 && version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* request = intf "request" in
    let* name =
      match Json.member "name" doc with
      | Some (Json.Str s) -> Ok s
      | _ -> Error "missing \"name\""
    in
    (* Version 1 called the event time "arrival" — every record was
       one. *)
    let* time = if version = 1 then floatf "arrival" else floatf "time" in
    let* event =
      if version = 1 then Ok Event.Arrival
      else
        match Json.member "event" doc with
        | Some (Json.Str s) -> (
          match Event.kind_of_string s with
          | Some k -> Ok k
          | None -> Error (Printf.sprintf "unknown event kind %S" s))
        | _ -> Error "missing \"event\""
    in
    let* admitted = boolf "admitted" in
    let* rung =
      match Json.member "rung" doc with
      | Some (Json.Str s) -> (
        match rung_of_string s with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "unknown rung %S" s))
      | _ -> Error "missing \"rung\""
    in
    let* exact_status = status_opt "exact_status" in
    let* greedy_status = status_opt "greedy_status" in
    let* revenue = floatf "revenue" in
    let* priced_cost =
      match Json.member "priced_cost" doc with
      | None -> Ok nan
      | Some v -> Json.to_float_exact v
    in
    let* t_start = floatf "t_start" in
    let* t_end = floatf "t_end" in
    let* ticks = intf "ticks" in
    let* moved =
      match Json.member "moved" doc with
      | None -> Ok []
      | Some (Json.List l) ->
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match Json.to_int v with
            | Ok i -> Ok (i :: acc)
            | Error _ -> Error "moved: expected integers")
          (Ok []) l
        |> Result.map List.rev
      | Some _ -> Error "moved: expected a list"
    in
    Ok
      {
        request;
        name;
        time;
        event;
        admitted;
        rung;
        exact_status;
        greedy_status;
        revenue;
        priced_cost;
        t_start;
        t_end;
        ticks;
        moved;
      }

let summary_to_json s =
  let i n = Json.Num (float_of_int n) in
  let floats a =
    Json.List (Array.to_list (Array.map Json.of_float_exact a))
  in
  Json.Obj
    [
      ("schema", Json.Str "tvnep-service/2");
      ("schema_version", i schema_version);
      ("events", i s.events);
      ("requests", i (s.accepted + s.denied));
      ("accepted", i s.accepted);
      ("denied", i s.denied);
      ("departed", i s.departed);
      ("migrations", i s.migrations);
      ("acceptance_ratio", Json.of_float_exact s.acceptance_ratio);
      ("revenue", Json.of_float_exact s.revenue);
      ("admitted_exact", i s.admitted_exact);
      ("admitted_rounded", i s.admitted_rounded);
      ("admitted_greedy", i s.admitted_greedy);
      ("admitted_migrated", i s.admitted_migrated);
      ("denied_exact", i s.denied_exact);
      ("denied_rounded", i s.denied_rounded);
      ("denied_greedy", i s.denied_greedy);
      ("denied_budget", i s.denied_budget);
      ("denied_priced", i s.denied_priced);
      ("ticks_p50", i s.ticks_p50);
      ("ticks_p99", i s.ticks_p99);
      ("total_ticks", i s.total_ticks);
      ("runtime", Json.of_float_exact s.runtime);
      ("node_prices", floats s.node_prices);
      ("link_prices", floats s.link_prices);
      ("records", Json.List (Array.to_list (Array.map record_to_json s.records)));
    ]
