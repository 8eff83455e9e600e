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
  state_node_load : Lp.Expr.t array array;
  state_link_load : Lp.Expr.t array array;
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
    Lp.Model.add_le model
      (Lp.Expr.sub
         (Lp.Expr.var (t_event.(i) :> int))
         (Lp.Expr.var (t_event.(i + 1) :> int)))
      0.0
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
      (Lp.Expr.sub
         (Lp.Expr.var (t_end.(req) :> int))
         (Lp.Expr.var (t_start.(req) :> int)))
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
        (Lp.Expr.sum
           (Array.to_list
              (Array.map
                 (fun ((_, v) : int * Lp.Model.var) -> Lp.Expr.var (v :> int))
                 vars)))
        1.0;
      vars)

(* The χ prefix and suffix sums of one request endpoint, built once:
   [until.(i - lo)] is [Σ_{j<=i} χ_j] and [from.(i - lo)] is
   [Σ_{j>=i} χ_j] over the endpoint's contiguous index range [lo, hi]. *)
type sums = { lo : int; until : Lp.Expr.t array; from : Lp.Expr.t array }

let sums chi =
  let n = Array.length chi in
  let until = Array.make n Lp.Expr.zero and from = Array.make n Lp.Expr.zero in
  let acc = ref Lp.Expr.zero in
  let add i =
    acc := Lp.Expr.add_term !acc ((snd chi.(i) : Lp.Model.var) :> int) 1.0
  in
  for i = 0 to n - 1 do
    add i;
    until.(i) <- !acc
  done;
  acc := Lp.Expr.zero;
  for i = n - 1 downto 0 do
    add i;
    from.(i) <- !acc
  done;
  { lo = fst chi.(0); until; from }

let cumulative_until s i =
  let n = Array.length s.until in
  if i < s.lo then Lp.Expr.zero else s.until.(min (i - s.lo) (n - 1))

let cumulative_from s i =
  let n = Array.length s.from in
  if i >= s.lo + n then Lp.Expr.zero else s.from.(max (i - s.lo) 0)

let chi_min chi = fst chi.(0)
let chi_max chi = fst chi.(Array.length chi - 1)

(* Constraints (14)/(15): the request time equals the time of its event. *)
let link_time_exact model ~horizon ~(t_event : Lp.Model.var array)
    ~(t_var : Lp.Model.var) ~chi =
  let lo = chi_min chi and hi = chi_max chi in
  let chi = sums chi in
  let tv = Lp.Expr.var ((t_var : Lp.Model.var) :> int) in
  (* Indices outside [lo, hi] yield constraints implied by event-time
     monotonicity (even in the relaxation), so only the range is posted. *)
  for i = lo to hi do
    (* t <= t_{e_i} + (1 - sum_{j<=i} chi_j) * T *)
    let sum = cumulative_until chi i in
    Lp.Model.add_le model
      (Lp.Expr.sub tv
         (Lp.Expr.add
            (Lp.Expr.var (t_event.(i) :> int))
            (Lp.Expr.scale horizon
               (Lp.Expr.sub (Lp.Expr.const 1.0) sum))))
      0.0
  done;
  for i = lo to hi do
    (* t >= t_{e_i} - (1 - sum_{j>=i} chi_j) * T *)
    let sum = cumulative_from chi i in
    Lp.Model.add_ge model
      (Lp.Expr.sub tv
         (Lp.Expr.sub
            (Lp.Expr.var (t_event.(i) :> int))
            (Lp.Expr.scale horizon
               (Lp.Expr.sub (Lp.Expr.const 1.0) sum))))
      0.0
  done

(* Constraints (16)/(17): an end mapped on e_i happened within
   [t_{e_{i-1}}, t_{e_i}]. *)
let link_time_interval model ~horizon ~(t_event : Lp.Model.var array)
    ~(t_var : Lp.Model.var) ~chi =
  let lo = chi_min chi and hi = chi_max chi in
  let chi = sums chi in
  let tv = Lp.Expr.var ((t_var : Lp.Model.var) :> int) in
  for i = lo to hi do
    let sum = cumulative_until chi i in
    Lp.Model.add_le model
      (Lp.Expr.sub tv
         (Lp.Expr.add
            (Lp.Expr.var (t_event.(i) :> int))
            (Lp.Expr.scale horizon
               (Lp.Expr.sub (Lp.Expr.const 1.0) sum))))
      0.0
  done;
  for i = max 1 lo to hi do
    let sum = cumulative_from chi i in
    Lp.Model.add_ge model
      (Lp.Expr.sub tv
         (Lp.Expr.sub
            (Lp.Expr.var (t_event.(i - 1) :> int))
            (Lp.Expr.scale horizon
               (Lp.Expr.sub (Lp.Expr.const 1.0) sum))))
      0.0
  done

(* Σ(R, e_i): [start <= i] - [end <= i], i.e. 1 exactly while active. *)
let activity_expr ~start ~end_ ~state =
  Lp.Expr.sub (cumulative_until start state) (cumulative_until end_ state)

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
                    if j = i then Some (Lp.Expr.var ((v : Lp.Model.var) :> int))
                    else None))
    in
    Lp.Model.add_eq model
      (Lp.Expr.sum (pick chi_start @ pick chi_end))
      1.0
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
  let cuts = Depgraph.pairwise_cuts inst in
  let start_sums = Array.map sums fm.chi_start
  and end_sums = Array.map sums fm.chi_end in
  let sums_for (v : Depgraph.vertex) =
    match v.Depgraph.kind with
    | Depgraph.Start -> start_sums.(v.Depgraph.req)
    | Depgraph.End -> end_sums.(v.Depgraph.req)
  in
  let hi s = s.lo + Array.length s.until - 1 in
  List.iter
    (fun { Depgraph.before; after; min_gap } ->
      let v = sums_for before and w = sums_for after in
      (* sum_{j<=i} chi_w <= sum_{j<=i-d} chi_v, skipping indices where the
         inequality is vacuous (LHS surely 0 or RHS surely 1). *)
      for i = max w.lo (v.lo + min_gap) to min (hi w) (hi v + min_gap - 1) do
        Lp.Model.add_le model
          (Lp.Expr.sub (cumulative_until w i)
             (cumulative_until v (i - min_gap)))
          0.0
      done)
    cuts

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

let set_expr_var arr expr value =
  match Lp.Expr.terms expr with
  | [ (id, c) ] when Float.abs (c -. 1.0) < 1e-12 -> arr.(id) <- value
  | _ -> ()

let lift_embedding inst ~req (emb : Embedding.t) (a : Solution.assignment) arr =
  let accepted = if a.Solution.accepted then 1.0 else 0.0 in
  arr.((emb.Embedding.x_r :> int)) <- accepted;
  let r = Instance.request inst req in
  let n_sub = Substrate.num_nodes inst.Instance.substrate in
  (match emb.Embedding.x_v with
  | None -> ()
  | Some x_v ->
    for v = 0 to Request.num_vnodes r - 1 do
      for s = 0 to n_sub - 1 do
        let value =
          if a.Solution.accepted && a.Solution.node_map.(v) = s then 1.0
          else 0.0
        in
        set_expr_var arr (x_v (v, s)) value
      done
    done);
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

let lift_times fm (sol : Solution.t) arr =
  Array.iteri
    (fun req (a : Solution.assignment) ->
      arr.((fm.t_start.(req) :> int)) <- a.Solution.t_start;
      arr.((fm.t_end.(req) :> int)) <- a.Solution.t_end)
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
