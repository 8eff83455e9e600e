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
  let state_node_load = Array.make_matrix n_states n_nodes Lp.Expr.zero in
  let state_link_load = Array.make_matrix n_states n_links Lp.Expr.zero in
  let a_records = ref [] in
  for req = 0 to k - 1 do
    let emb = embeddings.(req) in
    let start = Formulation.sums chi_start.(req)
    and end_ = Formulation.sums chi_end.(req) in
    for i = 0 to n_states - 1 do
      let sigma = Formulation.activity_expr ~start ~end_ ~state:i in
      let add_alloc_var cap alloc =
        let a = Lp.Model.add_var model ~lb:0.0 ~ub:cap in
        Lp.Model.add_ge model
          (Lp.Expr.sub
             (Lp.Expr.var (a :> int))
             (Lp.Expr.sub alloc
                (Lp.Expr.scale cap (Lp.Expr.sub (Lp.Expr.const 1.0) sigma))))
          0.0;
        a
      in
      for s = 0 to n_nodes - 1 do
        if Lp.Expr.num_terms emb.Embedding.node_alloc.(s) > 0 then begin
          let a =
            add_alloc_var (Substrate.node_cap sub s)
              emb.Embedding.node_alloc.(s)
          in
          a_records := (req, i, `Node s, a) :: !a_records;
          state_node_load.(i).(s) <-
            Lp.Expr.add state_node_load.(i).(s) (Lp.Expr.var (a :> int))
        end
      done;
      for l = 0 to n_links - 1 do
        if Lp.Expr.num_terms emb.Embedding.link_alloc.(l) > 0 then begin
          let a =
            add_alloc_var (Substrate.link_cap sub l)
              emb.Embedding.link_alloc.(l)
          in
          a_records := (req, i, `Link l, a) :: !a_records;
          state_link_load.(i).(l) <-
            Lp.Expr.add state_link_load.(i).(l) (Lp.Expr.var (a :> int))
        end
      done
    done
  done;
  for i = 0 to n_states - 1 do
    for s = 0 to n_nodes - 1 do
      if Lp.Expr.num_terms state_node_load.(i).(s) > 0 then
        Lp.Model.add_le model state_node_load.(i).(s) (Substrate.node_cap sub s)
    done;
    for l = 0 to n_links - 1 do
      if Lp.Expr.num_terms state_link_load.(i).(l) > 0 then
        Lp.Model.add_le model state_link_load.(i).(l) (Substrate.link_cap sub l)
    done
  done;
  let lift (sol : Solution.t) =
    let arr = Array.make (Lp.Model.num_vars model) 0.0 in
    Array.iteri
      (fun req emb ->
        Formulation.lift_embedding inst ~req emb
          sol.Solution.assignments.(req) arr)
      embeddings;
    Array.iteri
      (fun req (a : Solution.assignment) ->
        arr.((t_start.(req) :> int)) <- a.Solution.t_start;
        arr.((t_end.(req) :> int)) <- a.Solution.t_end)
      sol.Solution.assignments;
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
