type options = { relax_integrality : bool }

let default_options = { relax_integrality = false }

let build ?(options = default_options) inst =
  let k = Instance.num_requests inst in
  if k = 0 then invalid_arg "Delta_model.build: no requests";
  let sub = inst.Instance.substrate in
  let n_nodes = Substrate.num_nodes sub and n_links = Substrate.num_links sub in
  let model = Lp.Model.create () in
  let embeddings =
    Formulation.add_embeddings model inst
      ~relax_integrality:options.relax_integrality
  in
  let n_events, chi_start, chi_end, t_event, t_start, t_end =
    Formulation.add_two_k_event_skeleton model inst
      ~relax_integrality:options.relax_integrality
  in
  let n_states = n_events - 1 in
  (* Δ variables: one per event per resource, within [-cap, cap]. *)
  let delta_node =
    Array.init n_events (fun _ ->
        Array.init n_nodes (fun s ->
            let c = Substrate.node_cap sub s in
            Lp.Model.add_var model ~lb:(-.c) ~ub:c))
  in
  let delta_link =
    Array.init n_events (fun _ ->
        Array.init n_links (fun l ->
            let c = Substrate.link_cap sub l in
            Lp.Model.add_var model ~lb:(-.c) ~ub:c))
  in
  (* Constraints (3)-(6): conditional assignment of Δ via big-M. *)
  let chi_at chis event =
    Array.to_list chis
    |> List.find_map (fun (j, v) -> if j = event then Some v else None)
  in
  (* Lower bounds are written [0 - m] so a zero capacity gives +0, the
     bits these rows have always had. *)
  let post_selection (d : Lp.Model.var) cap alloc ~chi_s ~chi_e =
    let plus = (d, 1.0) :: alloc
    and minus = (d, 1.0) :: List.map (fun (v, c) -> (v, -.c)) alloc in
    (match chi_s with
    | None -> ()
    | Some (v : Lp.Model.var) ->
      (* (3)  Δ <= alloc + cap (1 - χ⁺) *)
      Lp.Model.add_le model (minus @ [ (v, cap) ]) cap;
      (* (4)  Δ >= alloc - 2 cap (1 - χ⁺) *)
      Lp.Model.add_ge model
        (minus @ [ (v, -2.0 *. cap) ])
        (0.0 -. (2.0 *. cap)));
    match chi_e with
    | None -> ()
    | Some (v : Lp.Model.var) ->
      (* (5)  Δ <= -alloc + 2 cap (1 - χ⁻) *)
      Lp.Model.add_le model (plus @ [ (v, 2.0 *. cap) ]) (2.0 *. cap);
      (* (6)  Δ >= -alloc - cap (1 - χ⁻) *)
      Lp.Model.add_ge model (plus @ [ (v, -.cap) ]) (0.0 -. cap)
  in
  for e = 0 to n_events - 1 do
    for req = 0 to k - 1 do
      let emb = embeddings.(req) in
      let chi_s = chi_at chi_start.(req) e and chi_e = chi_at chi_end.(req) e in
      (* No zero-allocation skipping here: Δ_e(r) must be pinned to 0 even
         when the event's request never touches resource r, or negative Δ
         values could cancel other requests' cumulative allocations. *)
      for s = 0 to n_nodes - 1 do
        post_selection delta_node.(e).(s) (Substrate.node_cap sub s)
          emb.Embedding.node_alloc.(s) ~chi_s ~chi_e
      done;
      for l = 0 to n_links - 1 do
        post_selection delta_link.(e).(l) (Substrate.link_cap sub l)
          emb.Embedding.link_alloc.(l) ~chi_s ~chi_e
      done
    done
  done;
  (* Cumulative state loads and capacity feasibility. *)
  let state_node_load = Array.make_matrix n_states n_nodes [] in
  let state_link_load = Array.make_matrix n_states n_links [] in
  for i = 0 to n_states - 1 do
    for s = 0 to n_nodes - 1 do
      let prev = if i = 0 then [] else state_node_load.(i - 1).(s) in
      state_node_load.(i).(s) <- (delta_node.(i).(s), 1.0) :: prev;
      Lp.Model.add_le model state_node_load.(i).(s) (Substrate.node_cap sub s)
    done;
    for l = 0 to n_links - 1 do
      let prev = if i = 0 then [] else state_link_load.(i - 1).(l) in
      state_link_load.(i).(l) <- (delta_link.(i).(l), 1.0) :: prev;
      Lp.Model.add_le model state_link_load.(i).(l) (Substrate.link_cap sub l)
    done
  done;
  let lift (sol : Solution.t) =
    let arr = Array.make (Lp.Model.num_vars model) 0.0 in
    Array.iteri
      (fun req emb ->
        Formulation.lift_embedding emb sol.Solution.assignments.(req) arr)
      embeddings;
    Formulation.lift_times ~t_start ~t_end sol arr;
    let start_pos, end_pos, ev_time =
      Formulation.endpoint_order sol ~n_events
    in
    Array.iteri (fun i (v : Lp.Model.var) -> arr.((v :> int)) <- ev_time.(i)) t_event;
    for req = 0 to k - 1 do
      ignore (Formulation.set_chi chi_start.(req) start_pos.(req) arr);
      ignore (Formulation.set_chi chi_end.(req) end_pos.(req) arr);
      (* Δ at the request's endpoints: ±alloc on every resource. *)
      let node_alloc, link_alloc =
        Formulation.alloc_values inst ~req sol.Solution.assignments.(req)
      in
      for s = 0 to n_nodes - 1 do
        arr.((delta_node.(start_pos.(req)).(s) :> int)) <- node_alloc.(s);
        arr.((delta_node.(end_pos.(req)).(s) :> int)) <- -.node_alloc.(s)
      done;
      for l = 0 to n_links - 1 do
        arr.((delta_link.(start_pos.(req)).(l) :> int)) <- link_alloc.(l);
        arr.((delta_link.(end_pos.(req)).(l) :> int)) <- -.link_alloc.(l)
      done
    done;
    arr
  in
  {
    Formulation.model;
    inst;
    n_events;
    n_states;
    embeddings;
    t_start;
    t_end;
    t_event;
    chi_start;
    chi_end;
    state_node_load;
    state_link_load;
    lift;
  }
