type t = {
  model : Lp.Model.t;
  inst : Instance.t;
  n_events : int;
  n_states : int;
  embeddings : Embedding.t array;
  t_start : Lp.Model.var array;
  t_end : Lp.Model.var array;
  t_event : Lp.Model.var array;
  chi_start : (int * Lp.Model.var) array array;
  chi_end : (int * Lp.Model.var) array array;
  state_node_load : (Lp.Model.var * float) list array array;
  state_link_load : (Lp.Model.var * float) list array array;
  lift : Solution.t -> float array;
}

let add_embeddings model inst ~relax_integrality =
  Array.init (Instance.num_requests inst) (fun req ->
      Embedding.build model inst ~req ~relax_integrality)

let add_temporal_vars model inst ~n_events =
  let k = Instance.num_requests inst in
  let horizon = inst.Instance.horizon in
  let t_event =
    Array.init n_events (fun _ -> Lp.Model.add_var model ~lb:0.0 ~ub:horizon)
  in
  (* Constraint (13): weakly monotone event times. *)
  for i = 0 to n_events - 2 do
    Lp.Model.add_le model [ (t_event.(i), 1.0); (t_event.(i + 1), -1.0) ] 0.0
  done;
  (* Zero-flexibility windows make [latest_start = end_max - d] equal to
     [start_min] only up to floating round-off; clamp so the bounds never
     cross by an ulp. *)
  let t_start =
    Array.init k (fun req ->
        let r = Instance.request inst req in
        Lp.Model.add_var model ~lb:r.Request.start_min
          ~ub:(Float.max r.Request.start_min (Request.latest_start r)))
  in
  let t_end =
    Array.init k (fun req ->
        let r = Instance.request inst req in
        Lp.Model.add_var model
          ~lb:(Float.min r.Request.end_max (Request.earliest_end r))
          ~ub:r.Request.end_max)
  in
  (* Constraint (18): embedded for exactly the requested duration. *)
  for req = 0 to k - 1 do
    let r = Instance.request inst req in
    Lp.Model.add_eq model
      [ (t_end.(req), 1.0); (t_start.(req), -1.0) ]
      r.Request.duration
  done;
  (t_event, t_start, t_end)

let add_chi model inst ~ranges ~relax_integrality =
  let kind = if relax_integrality then Lp.Model.Continuous else Lp.Model.Binary in
  Array.init (Instance.num_requests inst) (fun req ->
      let lo, hi = ranges.(req) in
      let vars =
        Array.init (hi - lo + 1) (fun off ->
            (lo + off, Lp.Model.add_var model ~lb:0.0 ~ub:1.0 ~kind))
      in
      (* Constraints (10)/(11): exactly one event per request endpoint. *)
      Lp.Model.add_eq model
        (Array.to_list (Array.map (fun (_, v) -> (v, 1.0)) vars))
        1.0;
      vars)

(* The χ slices of one request endpoint as terms with coefficient [c]:
   [Σ_{j<=i} c·χ_j] and [Σ_{j>=i} c·χ_j] over its allowed index range
   (empty when no allowed index qualifies). *)
let chi_until chi i c =
  Array.fold_right (fun (j, v) acc -> if j <= i then (v, c) :: acc else acc) chi []

let chi_from chi i c =
  Array.fold_right (fun (j, v) acc -> if j >= i then (v, c) :: acc else acc) chi []

let chi_min chi = fst chi.(0)
let chi_max chi = fst chi.(Array.length chi - 1)

(* Constraints (14)/(15): the request time equals the time of its event. *)
let link_time_exact model ~horizon ~(t_event : Lp.Model.var array)
    ~(t_var : Lp.Model.var) ~chi =
  (* Indices outside [lo, hi] yield constraints implied by event-time
     monotonicity (even in the relaxation), so only the range is posted. *)
  for i = chi_min chi to chi_max chi do
    (* t <= t_{e_i} + (1 - Σ_{j<=i} χ_j)·T *)
    Lp.Model.add_le model
      ((t_var, 1.0) :: (t_event.(i), -1.0) :: chi_until chi i horizon)
      horizon
  done;
  for i = chi_min chi to chi_max chi do
    (* t >= t_{e_i} - (1 - Σ_{j>=i} χ_j)·T *)
    Lp.Model.add_ge model
      ((t_var, 1.0) :: (t_event.(i), -1.0) :: chi_from chi i (-.horizon))
      (-.horizon)
  done

(* Constraints (16)/(17): an end mapped on e_i happened within
   [t_{e_{i-1}}, t_{e_i}]. *)
let link_time_interval model ~horizon ~(t_event : Lp.Model.var array)
    ~(t_var : Lp.Model.var) ~chi =
  for i = chi_min chi to chi_max chi do
    Lp.Model.add_le model
      ((t_var, 1.0) :: (t_event.(i), -1.0) :: chi_until chi i horizon)
      horizon
  done;
  for i = max 1 (chi_min chi) to chi_max chi do
    Lp.Model.add_ge model
      ((t_var, 1.0) :: (t_event.(i - 1), -1.0) :: chi_from chi i (-.horizon))
      (-.horizon)
  done

(* Σ(R, e_i): [start <= i] - [end <= i], i.e. 1 exactly while active. *)
let activity ~start ~end_ ~state =
  chi_until start state 1.0 @ chi_until end_ state (-1.0)

(* a >= alloc - cap·(1 - σ), posted as a - alloc - cap·σ >= -cap.  The
   bound is written [0 - cap] so a zero capacity gives +0, the bits the
   row has always had. *)
let add_alloc_var model ~cap ~alloc ~active =
  let a = Lp.Model.add_var model ~lb:0.0 ~ub:cap in
  Lp.Model.add_ge model
    (((a, 1.0) :: List.map (fun (v, c) -> (v, -.c)) alloc)
    @ List.map (fun (v, c) -> (v, -.cap *. c)) active)
    (0.0 -. cap);
  a

let add_two_k_event_skeleton model inst ~relax_integrality =
  let k = Instance.num_requests inst in
  let n_events = 2 * k in
  let full_range = Array.make k (0, n_events - 1) in
  let chi_start = add_chi model inst ~ranges:full_range ~relax_integrality in
  let chi_end = add_chi model inst ~ranges:full_range ~relax_integrality in
  (* Bijectivity: exactly one endpoint (start or end of some request) is
     assigned to every event point. *)
  for i = 0 to n_events - 1 do
    let pick chis =
      Array.to_list chis
      |> List.concat_map (fun arr ->
             Array.to_list arr
             |> List.filter_map (fun (j, v) ->
                    if j = i then Some (v, 1.0) else None))
    in
    Lp.Model.add_eq model (pick chi_start @ pick chi_end) 1.0
  done;
  let t_event, t_start, t_end = add_temporal_vars model inst ~n_events in
  let horizon = inst.Instance.horizon in
  for req = 0 to k - 1 do
    link_time_exact model ~horizon ~t_event ~t_var:t_start.(req)
      ~chi:chi_start.(req);
    link_time_exact model ~horizon ~t_event ~t_var:t_end.(req)
      ~chi:chi_end.(req)
  done;
  (n_events, chi_start, chi_end, t_event, t_start, t_end)

let add_pairwise_cuts model inst fm =
  let chi_of (v : Depgraph.vertex) =
    match v.Depgraph.kind with
    | Depgraph.Start -> fm.chi_start.(v.Depgraph.req)
    | Depgraph.End -> fm.chi_end.(v.Depgraph.req)
  in
  List.iter
    (fun { Depgraph.before; after; min_gap } ->
      let v = chi_of before and w = chi_of after in
      (* sum_{j<=i} chi_w <= sum_{j<=i-d} chi_v, skipping indices where the
         inequality is vacuous (LHS surely 0 or RHS surely 1). *)
      for i = max (chi_min w) (chi_min v + min_gap)
          to min (chi_max w) (chi_max v + min_gap - 1) do
        Lp.Model.add_le model
          (chi_until w i 1.0 @ chi_until v (i - min_gap) (-1.0))
          0.0
      done)
    (Depgraph.pairwise_cuts inst)

(* --- lifting helpers --------------------------------------------------- *)

let alloc_values inst ~req (a : Solution.assignment) =
  let r = Instance.request inst req in
  let sub = inst.Instance.substrate in
  let node = Array.make (Substrate.num_nodes sub) 0.0 in
  let link = Array.make (Substrate.num_links sub) 0.0 in
  if a.Solution.accepted then begin
    Array.iteri
      (fun v host -> node.(host) <- node.(host) +. r.Request.node_demand.(v))
      a.Solution.node_map;
    Array.iteri
      (fun lv flows ->
        List.iter
          (fun (ls, frac) ->
            link.(ls) <- link.(ls) +. (r.Request.link_demand.(lv) *. frac))
          flows)
      a.Solution.link_flows
  end;
  (node, link)

let lift_embedding (emb : Embedding.t) (a : Solution.assignment) arr =
  let accepted = if a.Solution.accepted then 1.0 else 0.0 in
  arr.((emb.Embedding.x_r :> int)) <- accepted;
  Option.iter
    (Array.iteri (fun v hosts ->
         Array.iteri
           (fun s (var : Lp.Model.var) ->
             arr.((var :> int)) <-
               (if a.Solution.accepted && a.Solution.node_map.(v) = s then 1.0
                else 0.0))
           hosts))
    emb.Embedding.x_v;
  (* Path-form embeddings carry no per-arc variables ([x_e = [||]]); their
     aggregated flow/path columns cannot be reconstructed from a solution's
     arc flows, so the lift leaves them at zero (the MIP layer re-verifies
     lifted points and drops infeasible ones). *)
  if Array.length emb.Embedding.x_e > 0 then
    Array.iteri
      (fun lv flows ->
        List.iter
          (fun (ls, frac) ->
            arr.((emb.Embedding.x_e.(lv).(ls) :> int)) <- frac)
          flows)
      a.Solution.link_flows

let lift_times ~t_start ~t_end (sol : Solution.t) arr =
  Array.iteri
    (fun req (a : Solution.assignment) ->
      arr.((t_start.(req) : Lp.Model.var :> int)) <- a.Solution.t_start;
      arr.((t_end.(req) : Lp.Model.var :> int)) <- a.Solution.t_end)
    sol.Solution.assignments

let set_chi chi event arr =
  let found = ref false in
  Array.iter
    (fun ((i, v) : int * Lp.Model.var) ->
      if i = event then begin
        arr.((v :> int)) <- 1.0;
        found := true
      end)
    chi;
  !found

(* Total order of the 2k request endpoints for the Σ/Δ event skeleton:
   sorted by scheduled time, ends before starts on ties (so a request
   ending exactly when another starts frees its resources first). *)
let endpoint_order (sol : Solution.t) ~n_events =
  let k = Array.length sol.Solution.assignments in
  assert (n_events = 2 * k);
  let endpoints =
    List.concat
      (List.init k (fun req ->
           let a = sol.Solution.assignments.(req) in
           [
             (a.Solution.t_start, 1, req);  (* starts after equal-time ends *)
             (a.Solution.t_end, 0, req);
           ]))
  in
  let sorted = List.sort compare endpoints in
  let start_pos = Array.make k (-1) and end_pos = Array.make k (-1) in
  let ev_time = Array.make n_events 0.0 in
  List.iteri
    (fun p (time, kind, req) ->
      ev_time.(p) <- time;
      if kind = 1 then start_pos.(req) <- p else end_pos.(req) <- p)
    sorted;
  (start_pos, end_pos, ev_time)

let extract_solution fm ~objective value_of =
  let inst = fm.inst in
  let assignments =
    Array.mapi
      (fun req emb ->
        let a = Embedding.extract inst ~req emb value_of in
        if a.Solution.accepted then
          {
            a with
            Solution.t_start = value_of (fm.t_start.(req) :> int);
            t_end = value_of (fm.t_end.(req) :> int);
          }
        else a)
      fm.embeddings
  in
  { Solution.assignments; objective }
