type t = {
  req_index : int;
  x_r : Lp.Model.var;
  x_v : Lp.Model.var array array option;
  x_e : Lp.Model.var array array;
  node_alloc : (Lp.Model.var * float) list array;
  link_alloc : (Lp.Model.var * float) list array;
}

(* Table V macros as terms.  A zero demand contributes no term, so a
   resource the request cannot load has an empty allocation, which the
   models use to skip its allocation variables and rows. *)
let alloc demands term =
  List.concat
    (List.mapi
       (fun i d -> if Lina.Tol.is_zero d then [] else term i d)
       (Array.to_list demands))

let fixed_node_alloc (r : Request.t) map x_r ~n_sub =
  Array.init n_sub (fun s ->
      (* The demands hosted on [s], summed in virtual-node order. *)
      let hosted =
        alloc r.Request.node_demand (fun v d ->
            if map.(v) = s then [ d ] else [])
      in
      if hosted = [] then [] else [ (x_r, List.fold_left ( +. ) 0.0 hosted) ])

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
  let x_v =
    match fixed with
    | Some _ -> None
    | None ->
      Some
        (Array.init n_vnodes (fun _ ->
             Array.init n_sub (fun _ ->
                 Lp.Model.add_var model ~lb:0.0 ~ub:1.0 ~kind)))
  in
  (* The mapping indicator x_V(v, s) with coefficient [c], as terms: under
     fixed mappings it is x_R at the prescribed host and 0 elsewhere. *)
  let x_v_term c (v, s) =
    match (x_v, fixed) with
    | Some vars, _ -> [ (vars.(v).(s), c) ]
    | None, Some map -> if map.(v) = s then [ (x_r, c) ] else []
    | None, None -> assert false
  in
  (* Constraint (1): each virtual node maps to exactly one substrate node
     iff the request is embedded.  Trivially satisfied under fixed maps. *)
  Option.iter
    (Array.iter (fun row ->
         Lp.Model.add_eq model
           (Array.fold_right (fun var acc -> (var, 1.0) :: acc) row
              [ (x_r, -1.0) ])
           0.0))
    x_v;
  let x_e =
    Array.init n_vlinks (fun _ ->
        Array.init n_slinks (fun _ -> Lp.Model.add_var model ~lb:0.0 ~ub:1.0))
  in
  (* Constraint (2): per virtual link, a unit splittable flow from the host
     of its tail to the host of its head:
     outflow − inflow − x_V(src, s) + x_V(dst, s) = 0. *)
  List.iter
    (fun (lv : Graphs.Digraph.edge) ->
      let flow c edges =
        List.map (fun (e : Graphs.Digraph.edge) -> (x_e.(lv.id).(e.id), c)) edges
      in
      for s = 0 to n_sub - 1 do
        Lp.Model.add_eq model
          (flow 1.0 (Graphs.Digraph.out_edges sgraph s)
          @ flow (-1.0) (Graphs.Digraph.in_edges sgraph s)
          @ x_v_term (-1.0) (lv.src, s)
          @ x_v_term 1.0 (lv.dst, s))
          0.0
      done)
    (Graphs.Digraph.edges r.Request.graph);
  let node_alloc =
    match fixed with
    | None ->
      Array.init n_sub (fun s ->
          alloc r.Request.node_demand (fun v d -> x_v_term d (v, s)))
    | Some map -> fixed_node_alloc r map x_r ~n_sub
  in
  let link_alloc =
    Array.init n_slinks (fun ls ->
        alloc r.Request.link_demand (fun lv d -> [ (x_e.(lv).(ls), d) ]))
  in
  { req_index = req; x_r; x_v; x_e; node_alloc; link_alloc }

let extract inst ~req emb value_of =
  let r = Instance.request inst req in
  let accepted = value_of (emb.x_r :> int) > 0.5 in
  if not accepted then Solution.rejected r
  else begin
    let node_map =
      match emb.x_v with
      | None -> Option.get (Instance.node_mapping inst req)
      | Some x_v ->
        Array.map
          (fun hosts ->
            let best = ref (-1) and best_v = ref 0.5 in
            Array.iteri
              (fun s (var : Lp.Model.var) ->
                let x = value_of (var :> int) in
                if x > !best_v then begin
                  best := s;
                  best_v := x
                end)
              hosts;
            !best)
          x_v
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
