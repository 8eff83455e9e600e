type options = { relax_integrality : bool }

let default_options = { relax_integrality = false }

let build ?(options = default_options) inst =
  let k = Instance.num_requests inst in
  if k = 0 then invalid_arg "Sigma_model.build: no requests";
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
  let state_node_load = Array.make_matrix n_states n_nodes [] in
  let state_link_load = Array.make_matrix n_states n_links [] in
  let a_records = ref [] in
  for req = 0 to k - 1 do
    let emb = embeddings.(req) in
    for i = 0 to n_states - 1 do
      let active =
        Formulation.activity ~start:chi_start.(req) ~end_:chi_end.(req)
          ~state:i
      in
      for s = 0 to n_nodes - 1 do
        let alloc = emb.Embedding.node_alloc.(s) in
        if alloc <> [] then begin
          let a =
            Formulation.add_alloc_var model ~cap:(Substrate.node_cap sub s)
              ~alloc ~active
          in
          a_records := (req, i, `Node s, a) :: !a_records;
          state_node_load.(i).(s) <- (a, 1.0) :: state_node_load.(i).(s)
        end
      done;
      for l = 0 to n_links - 1 do
        let alloc = emb.Embedding.link_alloc.(l) in
        if alloc <> [] then begin
          let a =
            Formulation.add_alloc_var model ~cap:(Substrate.link_cap sub l)
              ~alloc ~active
          in
          a_records := (req, i, `Link l, a) :: !a_records;
          state_link_load.(i).(l) <- (a, 1.0) :: state_link_load.(i).(l)
        end
      done
    done
  done;
  for i = 0 to n_states - 1 do
    for s = 0 to n_nodes - 1 do
      if state_node_load.(i).(s) <> [] then
        Lp.Model.add_le model state_node_load.(i).(s) (Substrate.node_cap sub s)
    done;
    for l = 0 to n_links - 1 do
      if state_link_load.(i).(l) <> [] then
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
      ignore (Formulation.set_chi chi_end.(req) end_pos.(req) arr)
    done;
    List.iter
      (fun (req, state, res, (a : Lp.Model.var)) ->
        if start_pos.(req) <= state && end_pos.(req) > state then begin
          let node_alloc, link_alloc =
            Formulation.alloc_values inst ~req sol.Solution.assignments.(req)
          in
          arr.((a :> int)) <-
            (match res with
            | `Node s -> node_alloc.(s)
            | `Link l -> link_alloc.(l))
        end)
      !a_records;
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
