type options = {
  use_cuts : bool;
  pairwise_cuts : bool;
  relax_integrality : bool;
}

let default_options =
  { use_cuts = true; pairwise_cuts = true; relax_integrality = false }

(* Activity of request [req] at state [i] (between e_i and e_{i+1}):
   [`Never], [`Always] (start surely before, end surely after — the
   presolve reduction), or [`Maybe]. *)
let state_activity (ranges : Depgraph.event_ranges) req i =
  let s_lo = ranges.Depgraph.start_lo.(req)
  and s_hi = ranges.Depgraph.start_hi.(req)
  and e_lo = ranges.Depgraph.end_lo.(req)
  and e_hi = ranges.Depgraph.end_hi.(req) in
  if i < s_lo || i > e_hi - 1 then `Never
  else if i >= s_hi && i <= e_lo - 1 then `Always
  else `Maybe

let build ?(options = default_options) ?prof ?budget ?embeddings inst =
  (* Model construction does not tick the work clock, so these spans show
     ≈0 ticks under a deterministic budget — they exist to make the
     presolve (dependency-graph event ranges) and cut-separation passes
     visible in the phase tree, with wall time when the recorder captures
     it. *)
  let span name f =
    match budget with
    | Some b -> Runtime.Span.with_ prof b name f
    | None -> f ()
  in
  let k = Instance.num_requests inst in
  if k = 0 then invalid_arg "Csigma_model.build: no requests";
  let n_events = k + 1 and n_states = k in
  let sub = inst.Instance.substrate in
  let n_nodes = Substrate.num_nodes sub and n_links = Substrate.num_links sub in
  let model = Lp.Model.create () in
  let embeddings =
    match embeddings with
    | Some factory -> factory model
    | None ->
      Formulation.add_embeddings model inst
        ~relax_integrality:options.relax_integrality
  in
  let ranges =
    span "presolve" @@ fun () ->
    if options.use_cuts then Depgraph.csigma_event_ranges inst
    else Depgraph.trivial_ranges inst
  in
  let chi_start =
    Formulation.add_chi model inst
      ~ranges:
        (Array.init k (fun r ->
             (ranges.Depgraph.start_lo.(r), ranges.Depgraph.start_hi.(r))))
      ~relax_integrality:options.relax_integrality
  in
  let chi_end =
    Formulation.add_chi model inst
      ~ranges:
        (Array.init k (fun r ->
             (ranges.Depgraph.end_lo.(r), ranges.Depgraph.end_hi.(r))))
      ~relax_integrality:options.relax_integrality
  in
  (* Constraint (12): starts are bijective on events e_0 .. e_{k-1}. *)
  for i = 0 to k - 1 do
    let vars =
      Array.to_list chi_start
      |> List.concat_map (fun chis ->
             Array.to_list chis
             |> List.filter_map (fun (j, v) ->
                    if j = i then Some (v, 1.0) else None))
    in
    Lp.Model.add_eq model vars 1.0
  done;
  let t_event, t_start, t_end =
    Formulation.add_temporal_vars model inst ~n_events
  in
  let horizon = inst.Instance.horizon in
  for req = 0 to k - 1 do
    Formulation.link_time_exact model ~horizon ~t_event
      ~t_var:t_start.(req) ~chi:chi_start.(req);
    Formulation.link_time_interval model ~horizon ~t_event ~t_var:t_end.(req)
      ~chi:chi_end.(req)
  done;
  (* State allocation variables (Table VIII/IX) with the presolve
     reduction: `Always states route the allocation terms straight
     into the capacity row.  Every a-variable is recorded so that the
     lifting closure below can assign it a value. *)
  let state_node_load = Array.make_matrix n_states n_nodes [] in
  let state_link_load = Array.make_matrix n_states n_links [] in
  let a_records = ref [] in
  for req = 0 to k - 1 do
    let emb = embeddings.(req) in
    for i = 0 to n_states - 1 do
      match state_activity ranges req i with
      | `Never -> ()
      | `Always ->
        for s = 0 to n_nodes - 1 do
          state_node_load.(i).(s) <-
            emb.Embedding.node_alloc.(s) @ state_node_load.(i).(s)
        done;
        for l = 0 to n_links - 1 do
          state_link_load.(i).(l) <-
            emb.Embedding.link_alloc.(l) @ state_link_load.(i).(l)
        done
      | `Maybe ->
        let active =
          Formulation.activity ~start:chi_start.(req) ~end_:chi_end.(req)
            ~state:i
        in
        for s = 0 to n_nodes - 1 do
          let alloc = emb.Embedding.node_alloc.(s) in
          (* Skip resources this request can never touch. *)
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
  (* Constraint (9): capacity feasibility of every state. *)
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
  (* Lift: encode a feasible TVNEP solution in this model's variables.
     Starts are ordered by scheduled time (bijective on events e_0..e_{k-1});
     each end maps to the first in-range event at or after its time; the
     a-variables take the concrete allocation on active states. *)
  let lift (sol : Solution.t) =
    let arr = Array.make (Lp.Model.num_vars model) 0.0 in
    Array.iteri
      (fun req emb ->
        Formulation.lift_embedding emb sol.Solution.assignments.(req) arr)
      embeddings;
    Formulation.lift_times ~t_start ~t_end sol arr;
    let order = List.init k (fun i -> i) in
    let order =
      List.sort
        (fun a b ->
          compare
            (sol.Solution.assignments.(a).Solution.t_start, a)
            (sol.Solution.assignments.(b).Solution.t_start, b))
        order
    in
    let pos = Array.make k 0 in
    List.iteri (fun p req -> pos.(req) <- p) order;
    let ev_time = Array.make n_events 0.0 in
    List.iteri
      (fun p req ->
        ev_time.(p) <- sol.Solution.assignments.(req).Solution.t_start)
      order;
    let max_end =
      Array.fold_left
        (fun acc (a : Solution.assignment) -> Float.max acc a.Solution.t_end)
        ev_time.(k - 1) sol.Solution.assignments
    in
    ev_time.(k) <- max_end;
    Array.iteri (fun i (v : Lp.Model.var) -> arr.((v :> int)) <- ev_time.(i)) t_event;
    let end_event = Array.make k (-1) in
    for req = 0 to k - 1 do
      ignore (Formulation.set_chi chi_start.(req) pos.(req) arr);
      let t_e = sol.Solution.assignments.(req).Solution.t_end in
      let lo = ranges.Depgraph.end_lo.(req) and hi = ranges.Depgraph.end_hi.(req) in
      let j = ref (-1) in
      for cand = hi downto lo do
        if ev_time.(cand) >= t_e -. 1e-9 then j := cand
      done;
      if !j >= 0 then begin
        end_event.(req) <- !j;
        ignore (Formulation.set_chi chi_end.(req) !j arr)
      end
    done;
    List.iter
      (fun (req, state, res, (a : Lp.Model.var)) ->
        let active =
          end_event.(req) >= 0
          && pos.(req) <= state
          && end_event.(req) > state
        in
        if active then begin
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
  let fm =
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
  in
  if options.pairwise_cuts then
    span "cuts" (fun () -> Formulation.add_pairwise_cuts model inst fm);
  fm
