type options = { slot_width : float; relax_integrality : bool }

let default_options = { slot_width = 1.0; relax_integrality = false }

let num_slots inst options =
  if options.slot_width <= 0.0 then
    invalid_arg "Discrete_model: non-positive slot width";
  int_of_float (Float.ceil (inst.Instance.horizon /. options.slot_width))

type t = {
  model : Lp.Model.t;
  inst : Instance.t;
  n_slots : int;
  embeddings : Embedding.t array;
  start_slot : (int * Lp.Model.var) array array;
}

(* Slots the request occupies when started at slot [s]: [s, s + ceil(d/w)). *)
let occupied_length options (r : Request.t) =
  max 1 (int_of_float (Float.ceil (r.Request.duration /. options.slot_width)))

let admissible_starts inst options req =
  let r = Instance.request inst req in
  let w = options.slot_width in
  let n = num_slots inst options in
  let len = occupied_length options r in
  List.filter
    (fun s ->
      let t0 = float_of_int s *. w in
      t0 >= r.Request.start_min -. 1e-9
      && t0 +. r.Request.duration <= r.Request.end_max +. 1e-9
      && s + len <= n)
    (List.init n (fun s -> s))

let build ?(options = default_options) inst =
  let k = Instance.num_requests inst in
  if k = 0 then invalid_arg "Discrete_model.build: no requests";
  let n_slots = num_slots inst options in
  let sub = inst.Instance.substrate in
  let n_nodes = Substrate.num_nodes sub and n_links = Substrate.num_links sub in
  let model = Lp.Model.create () in
  let embeddings =
    Formulation.add_embeddings model inst
      ~relax_integrality:options.relax_integrality
  in
  let kind =
    if options.relax_integrality then Lp.Model.Continuous else Lp.Model.Binary
  in
  let start_slot =
    Array.init k (fun req ->
        Array.of_list
          (List.map
             (fun s -> (s, Lp.Model.add_var model ~lb:0.0 ~ub:1.0 ~kind))
             (admissible_starts inst options req)))
  in
  (* One start slot iff embedded; a request with no admissible slot at
     this granularity is simply forced out. *)
  Array.iteri
    (fun req slots ->
      Lp.Model.add_eq model
        (Array.fold_right
           (fun (_, z) acc -> (z, 1.0) :: acc)
           slots
           [ (embeddings.(req).Embedding.x_r, -1.0) ])
        0.0)
    start_slot;
  (* Activity indicator per slot, then the usual big-M state allocations
     and per-slot capacity rows. *)
  let slot_node_load = Array.make_matrix n_slots n_nodes [] in
  let slot_link_load = Array.make_matrix n_slots n_links [] in
  for req = 0 to k - 1 do
    let r = Instance.request inst req in
    let emb = embeddings.(req) in
    let len = occupied_length options r in
    for slot = 0 to n_slots - 1 do
      let active =
        Array.to_list start_slot.(req)
        |> List.filter_map (fun (s, z) ->
               if s <= slot && slot < s + len then Some (z, 1.0) else None)
      in
      if active <> [] then begin
        for s = 0 to n_nodes - 1 do
          let alloc = emb.Embedding.node_alloc.(s) in
          if alloc <> [] then
            let a =
              Formulation.add_alloc_var model ~cap:(Substrate.node_cap sub s)
                ~alloc ~active
            in
            slot_node_load.(slot).(s) <- (a, 1.0) :: slot_node_load.(slot).(s)
        done;
        for l = 0 to n_links - 1 do
          let alloc = emb.Embedding.link_alloc.(l) in
          if alloc <> [] then
            let a =
              Formulation.add_alloc_var model ~cap:(Substrate.link_cap sub l)
                ~alloc ~active
            in
            slot_link_load.(slot).(l) <- (a, 1.0) :: slot_link_load.(slot).(l)
        done
      end
    done
  done;
  for slot = 0 to n_slots - 1 do
    for s = 0 to n_nodes - 1 do
      if slot_node_load.(slot).(s) <> [] then
        Lp.Model.add_le model slot_node_load.(slot).(s)
          (Substrate.node_cap sub s)
    done;
    for l = 0 to n_links - 1 do
      if slot_link_load.(slot).(l) <> [] then
        Lp.Model.add_le model slot_link_load.(slot).(l)
          (Substrate.link_cap sub l)
    done
  done;
  { model; inst; n_slots; embeddings; start_slot }

let solve ?(options = default_options) ?(mip = Mip.Branch_bound.default_params)
    ?budget ?stats inst =
  (* Without a caller's budget, the one branch-and-bound would create:
     [runtime] and [ticks] are deltas on it, build included. *)
  let budget =
    match budget with
    | Some b -> b
    | None ->
      Runtime.Budget.create ~time_limit:mip.Mip.Branch_bound.time_limit
        ~node_limit:mip.Mip.Branch_bound.node_limit ()
  in
  let ticks0 = Runtime.Budget.ticks budget in
  let t0 = Runtime.Budget.elapsed budget in
  let dm = build ~options inst in
  (* Access-control objective, as in the continuous model comparison. *)
  Lp.Model.set_objective dm.model Lp.Model.Maximize
    (Objective.revenue_terms inst dm.embeddings);
  let result =
    Mip.Branch_bound.solve ~params:mip ~budget ?stats dm.model
  in
  let solution =
    match result.Mip.Branch_bound.incumbent with
    | None -> None
    | Some x ->
      let value_of id = x.(id) in
      let assignments =
        Array.mapi
          (fun req emb ->
            let a = Embedding.extract inst ~req emb value_of in
            if a.Solution.accepted then begin
              let r = Instance.request inst req in
              let start =
                Array.fold_left
                  (fun acc ((s, z) : int * Lp.Model.var) ->
                    if value_of (z :> int) > 0.5 then
                      float_of_int s *. options.slot_width
                    else acc)
                  r.Request.start_min dm.start_slot.(req)
              in
              { a with Solution.t_start = start;
                t_end = start +. r.Request.duration }
            end
            else a)
          dm.embeddings
      in
      let objective =
        match result.Mip.Branch_bound.objective with Some o -> o | None -> nan
      in
      Some { Solution.assignments; objective }
  in
  let status =
    match result.Mip.Branch_bound.status with
    | Mip.Branch_bound.Optimal -> Solver.Optimal
    | Mip.Branch_bound.Infeasible -> Solver.Infeasible
    | Mip.Branch_bound.Unbounded -> Solver.Unbounded
    | Mip.Branch_bound.Time_limit | Mip.Branch_bound.Node_limit ->
      if solution <> None then Solver.Feasible else Solver.Budget_exhausted
    | Mip.Branch_bound.Numerical_failure -> Solver.Failed
  in
  {
    Solver.status;
    method_used = Solver.Exact;
    mip_status = Some result.Mip.Branch_bound.status;
    solution;
    objective = result.Mip.Branch_bound.objective;
    bound = result.Mip.Branch_bound.best_bound;
    gap = result.Mip.Branch_bound.gap;
    runtime = Runtime.Budget.elapsed budget -. t0;
    ticks = Runtime.Budget.ticks budget - ticks0;
    nodes = result.Mip.Branch_bound.nodes;
    lp_iterations = result.Mip.Branch_bound.lp_iterations;
    model_vars = Lp.Model.num_vars dm.model;
    model_rows = Lp.Model.num_constrs dm.model;
    hybrid = None;
    colgen = None;
    stats = result.Mip.Branch_bound.stats;
  }
