type t =
  | Access_control
  | Max_earliness
  | Balance_node_load of float
  | Disable_links
  | Min_makespan
  | Access_with_move_cost of {
      weight : float;
      reference : (int * float) list;
    }

let name = function
  | Access_control -> "access-control"
  | Max_earliness -> "earliness"
  | Balance_node_load _ -> "load-balance"
  | Disable_links -> "disable-links"
  | Min_makespan -> "makespan"
  | Access_with_move_cost _ -> "access-move-cost"

let requires_full_embedding = function
  | Access_control | Access_with_move_cost _ -> false
  | Max_earliness | Balance_node_load _ | Disable_links | Min_makespan -> true

type extras = {
  free_nodes : Lp.Model.var array option;
  disabled_links : Lp.Model.var array option;
  makespan : Lp.Model.var option;
}

let no_extras = { free_nodes = None; disabled_links = None; makespan = None }

let fix_all_embedded (fm : Formulation.t) =
  Array.iter
    (fun (emb : Embedding.t) ->
      Lp.Model.fix_var fm.Formulation.model emb.Embedding.x_r 1.0)
    fm.Formulation.embeddings

let revenue_terms inst (embeddings : Embedding.t array) =
  Array.to_list
    (Array.mapi
       (fun req (emb : Embedding.t) ->
         let r = Instance.request inst req in
         (emb.Embedding.x_r, r.Request.duration *. Request.total_node_demand r))
       embeddings)

let access_terms (fm : Formulation.t) =
  revenue_terms fm.Formulation.inst fm.Formulation.embeddings

let access_control (fm : Formulation.t) =
  Lp.Model.set_objective fm.Formulation.model Lp.Model.Maximize
    (access_terms fm);
  no_extras

(* Access control with a linear move penalty: one auxiliary continuous
   variable per referenced request, lower-bounded by both signs of
   [t⁺ − ref], priced at −weight.  Maximization drives each MV to exactly
   |t⁺ − ref|, so an admission that needs migrations only survives when
   its revenue covers the weighted schedule displacement it causes. *)
let access_with_move_cost (fm : Formulation.t) ~weight ~reference =
  if weight < 0.0 || not (Float.is_finite weight) then
    invalid_arg "Objective: move-cost weight must be finite and nonnegative";
  let model = fm.Formulation.model in
  let inst = fm.Formulation.inst in
  let k = Array.length fm.Formulation.embeddings in
  let seen = Hashtbl.create 8 in
  let move_terms =
    List.map
      (fun (req, ref_start) ->
        if req < 0 || req >= k then
          invalid_arg "Objective: move-cost reference out of range";
        if Hashtbl.mem seen req then
          invalid_arg "Objective: request referenced twice in move cost";
        Hashtbl.replace seen req ();
        let mv = Lp.Model.add_var model ~lb:0.0 ~ub:inst.Instance.horizon in
        let t = fm.Formulation.t_start.(req) in
        Lp.Model.add_le model [ (t, 1.0); (mv, -1.0) ] ref_start;
        (* [0 - ref] keeps a zero reference's bound at +0. *)
        Lp.Model.add_le model [ (t, -1.0); (mv, -1.0) ] (0.0 -. ref_start);
        (mv, -.weight))
      reference
  in
  Lp.Model.set_objective model Lp.Model.Maximize (access_terms fm @ move_terms);
  no_extras

let max_earliness (fm : Formulation.t) =
  fix_all_embedded fm;
  let inst = fm.Formulation.inst in
  (* Per request a constant and at most one t⁺ term; the constants are
     summed in request order. *)
  let parts =
    Array.to_list
      (Array.mapi
         (fun req tplus ->
           let r = Instance.request inst req in
           let d = r.Request.duration in
           let flex = Request.flexibility r in
           if flex <= 1e-9 then (d, [])
           else
             (* d (1 - (t⁺ - t^s)/flex) = d + d·t^s/flex - (d/flex)·t⁺ *)
             (d +. (d *. r.Request.start_min /. flex), [ (tplus, -.d /. flex) ]))
         fm.Formulation.t_start)
  in
  Lp.Model.set_objective fm.Formulation.model Lp.Model.Maximize
    ~offset:(List.fold_left (fun acc (c, _) -> acc +. c) 0.0 parts)
    (List.concat_map snd parts);
  no_extras

let balance_node_load (fm : Formulation.t) fraction =
  if fraction <= 0.0 || fraction >= 1.0 then
    invalid_arg "Objective: load-balance fraction must lie in (0, 1)";
  fix_all_embedded fm;
  let model = fm.Formulation.model in
  let inst = fm.Formulation.inst in
  let sub = inst.Instance.substrate in
  let n_nodes = Substrate.num_nodes sub in
  let free =
    Array.init n_nodes (fun _ -> Lp.Model.add_var model ~kind:Lp.Model.Binary)
  in
  (* load(s_i, N_s) <= f·c + (1 - F)·(1 - f)·c  for every state *)
  for s = 0 to n_nodes - 1 do
    let c = Substrate.node_cap sub s in
    for i = 0 to fm.Formulation.n_states - 1 do
      let load = fm.Formulation.state_node_load.(i).(s) in
      if load <> [] then
        Lp.Model.add_le model ((free.(s), (1.0 -. fraction) *. c) :: load) c
    done
  done;
  Lp.Model.set_objective model Lp.Model.Maximize
    (Array.to_list (Array.map (fun v -> (v, 1.0)) free));
  { no_extras with free_nodes = Some free }

let disable_links (fm : Formulation.t) =
  fix_all_embedded fm;
  let model = fm.Formulation.model in
  let inst = fm.Formulation.inst in
  let sub = inst.Instance.substrate in
  let n_links = Substrate.num_links sub in
  let big_m = float_of_int (max 1 (Instance.total_virtual_links inst)) in
  (* Path-form embeddings ([x_e = [||]]) expose flow only through the
     demand-scaled [link_alloc] aggregate, so the big-M must also cover
     the total link demand (arc-form-only models keep the historical
     coefficient unchanged). *)
  let has_aggregated =
    Array.exists
      (fun (emb : Embedding.t) -> Array.length emb.Embedding.x_e = 0)
      fm.Formulation.embeddings
  in
  let big_m =
    if has_aggregated then
      Float.max big_m
        (Array.fold_left
           (fun acc (r : Request.t) ->
             acc +. Array.fold_left ( +. ) 0.0 r.Request.link_demand)
           1.0 inst.Instance.requests)
    else big_m
  in
  let disabled =
    Array.init n_links (fun _ -> Lp.Model.add_var model ~kind:Lp.Model.Binary)
  in
  for l = 0 to n_links - 1 do
    let total_flow =
      Array.to_list fm.Formulation.embeddings
      |> List.concat_map (fun (emb : Embedding.t) ->
             if Array.length emb.Embedding.x_e = 0 then
               emb.Embedding.link_alloc.(l)
             else
               Array.to_list emb.Embedding.x_e
               |> List.map (fun row -> (row.(l), 1.0)))
    in
    (* Σ x_E <= M (1 - D): any flow on the link forbids disabling it. *)
    Lp.Model.add_le model (total_flow @ [ (disabled.(l), big_m) ]) big_m
  done;
  Lp.Model.set_objective model Lp.Model.Maximize
    (Array.to_list (Array.map (fun v -> (v, 1.0)) disabled));
  { no_extras with disabled_links = Some disabled }

let min_makespan (fm : Formulation.t) =
  fix_all_embedded fm;
  let model = fm.Formulation.model in
  let inst = fm.Formulation.inst in
  (* T_max dominates every request's end; its lower bound is the largest
     earliest end, which the model could never beat anyway. *)
  let lower =
    Array.fold_left
      (fun acc r -> Float.max acc (Request.earliest_end r))
      0.0 inst.Instance.requests
  in
  let t_max = Lp.Model.add_var model ~lb:lower ~ub:inst.Instance.horizon in
  Array.iter
    (fun (t_end : Lp.Model.var) ->
      Lp.Model.add_le model [ (t_end, 1.0); (t_max, -1.0) ] 0.0)
    fm.Formulation.t_end;
  Lp.Model.set_objective model Lp.Model.Minimize [ (t_max, 1.0) ];
  { no_extras with makespan = Some t_max }

let apply fm = function
  | Access_control -> access_control fm
  | Max_earliness -> max_earliness fm
  | Balance_node_load fraction -> balance_node_load fm fraction
  | Disable_links -> disable_links fm
  | Min_makespan -> min_makespan fm
  | Access_with_move_cost { weight; reference } ->
    access_with_move_cost fm ~weight ~reference
