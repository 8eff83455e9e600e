type t = {
  req_index : int;
  x_r : Lp.Model.var;
  x_v : (int * int -> Lp.Expr.t) option;
  x_e : Lp.Model.var array array;
  node_alloc : Lp.Expr.t array;
  link_alloc : Lp.Expr.t array;
}

let node_indicator inst emb ~vnode ~snode =
  match emb.x_v with
  | Some f -> f (vnode, snode)
  | None ->
    (match Instance.node_mapping inst emb.req_index with
    | Some fixed ->
      if fixed.(vnode) = snode then Lp.Expr.var (emb.x_r :> int)
      else Lp.Expr.zero
    | None -> assert false)

let build model inst ~req ~relax_integrality =
  let r = Instance.request inst req in
  let sub = inst.Instance.substrate in
  let sgraph = Substrate.graph sub in
  let n_sub = Substrate.num_nodes sub in
  let n_slinks = Substrate.num_links sub in
  let n_vnodes = Request.num_vnodes r in
  let n_vlinks = Request.num_vlinks r in
  let kind = if relax_integrality then Lp.Model.Continuous else Lp.Model.Binary in
  let x_r = Lp.Model.add_var model ~lb:0.0 ~ub:1.0 ~kind in
  let fixed = Instance.node_mapping inst req in
  (* x_V variables only in the free-mapping case. *)
  let x_v_vars =
    match fixed with
    | Some _ -> None
    | None ->
      Some
        (Array.init n_vnodes (fun _ ->
             Array.init n_sub (fun _ ->
                 Lp.Model.add_var model ~lb:0.0 ~ub:1.0 ~kind)))
  in
  let x_v_expr (v, s) =
    match (x_v_vars, fixed) with
    | Some vars, _ -> Lp.Expr.var (vars.(v).(s) :> int)
    | None, Some map ->
      if map.(v) = s then Lp.Expr.var (x_r :> int) else Lp.Expr.zero
    | None, None -> assert false
  in
  (* Constraint (1): each virtual node maps to exactly one substrate node
     iff the request is embedded.  Trivially satisfied under fixed maps. *)
  (match x_v_vars with
  | None -> ()
  | Some vars ->
    Array.iter
      (fun row ->
        let lhs =
          Lp.Expr.sum
            (Array.to_list
               (Array.map (fun (var : Lp.Model.var) -> Lp.Expr.var (var :> int)) row))
        in
        Lp.Model.add_eq model
          (Lp.Expr.sub lhs (Lp.Expr.var (x_r :> int)))
          0.0)
      vars);
  let x_e =
    Array.init n_vlinks (fun _ ->
        Array.init n_slinks (fun _ -> Lp.Model.add_var model ~lb:0.0 ~ub:1.0))
  in
  (* Constraint (2): per virtual link, a unit splittable flow from the host
     of its tail to the host of its head. *)
  List.iter
    (fun (lv : Graphs.Digraph.edge) ->
      for s = 0 to n_sub - 1 do
        let outflow =
          Lp.Expr.sum
            (List.map
               (fun (e : Graphs.Digraph.edge) ->
                 Lp.Expr.var (x_e.(lv.id).(e.id) :> int))
               (Graphs.Digraph.out_edges sgraph s))
        in
        let inflow =
          Lp.Expr.sum
            (List.map
               (fun (e : Graphs.Digraph.edge) ->
                 Lp.Expr.var (x_e.(lv.id).(e.id) :> int))
               (Graphs.Digraph.in_edges sgraph s))
        in
        let rhs = Lp.Expr.sub (x_v_expr (lv.src, s)) (x_v_expr (lv.dst, s)) in
        Lp.Model.add_eq model
          (Lp.Expr.sub (Lp.Expr.sub outflow inflow) rhs)
          0.0
      done)
    (Graphs.Digraph.edges r.Request.graph);
  (* Table V macros as expressions. *)
  let node_alloc =
    Array.init n_sub (fun s ->
        Lp.Expr.sum
          (List.init n_vnodes (fun v ->
               Lp.Expr.scale r.Request.node_demand.(v) (x_v_expr (v, s)))))
  in
  let link_alloc =
    Array.init n_slinks (fun ls ->
        Lp.Expr.sum
          (List.init n_vlinks (fun lv ->
               Lp.Expr.scale r.Request.link_demand.(lv)
                 (Lp.Expr.var (x_e.(lv).(ls) :> int)))))
  in
  let x_v =
    match x_v_vars with
    | None -> None
    | Some _ -> Some x_v_expr
  in
  { req_index = req; x_r; x_v; x_e; node_alloc; link_alloc }

let extract inst ~req emb value_of =
  let r = Instance.request inst req in
  let accepted = value_of (emb.x_r :> int) > 0.5 in
  if not accepted then Solution.rejected r
  else begin
    let n_vnodes = Request.num_vnodes r in
    let node_map =
      match Instance.node_mapping inst req with
      | Some fixed -> Array.copy fixed
      | None ->
        Array.init n_vnodes (fun v ->
            let n_sub = Substrate.num_nodes inst.Instance.substrate in
            let best = ref (-1) and best_v = ref 0.5 in
            for s = 0 to n_sub - 1 do
              let x = Lp.Expr.eval (node_indicator inst emb ~vnode:v ~snode:s) value_of in
              if x > !best_v then begin
                best := s;
                best_v := x
              end
            done;
            !best)
    in
    let link_flows =
      Array.map
        (fun row ->
          let acc = ref [] in
          Array.iteri
            (fun ls (var : Lp.Model.var) ->
              let v = value_of (var :> int) in
              if v > 1e-9 then acc := (ls, v) :: !acc)
            row;
          List.rev !acc)
        emb.x_e
    in
    {
      Solution.accepted = true;
      node_map;
      link_flows;
      t_start = 0.0;
      (* schedule filled by the temporal layer *)
      t_end = 0.0;
    }
  end
