(* Column generation for the link-flow layer: a path-based restricted
   master (Mijumbi-style path generation for VNE) plugged into the cΣ
   temporal machinery through {!Csigma_model}'s [?embeddings] hook.

   Per request [R] (fixed node mappings required) the master carries

   - the acceptance binary [x_R];
   - one aggregate flow variable [f_{R,ls}] per substrate link with the
     coupling row  Σ_{lv} d_lv · Σ_{p ∋ ls} y_p − f_{R,ls} ≤ 0, so the
     temporal layer sees [link_alloc ls = f_{R,ls}] — exactly the shape
     the arc form exposes, which is what isolates the cΣ layer from the
     flow formulation;
   - per commodity (virtual link whose endpoints map to distinct hosts)
     a convexity row  Σ_p y_p − x_R = 0  over its current path columns.

   Writing the coupling row as [≤ 0] pins the sign of its dual: at any
   master optimum the internal dual [y_cpl] is ≤ 0, so the dual-adjusted
   arc cost  w(ls) = −d_lv · y_cpl(R, ls)  is nonnegative and pricing is
   a plain Dijkstra per commodity ({!Graphs.Paths.Pricer}).  A path [p]
   has internal reduced cost  Σ_{ls∈p} w(ls) − y_cnv  and enters the
   master when it is < −eps. *)

module Budget = Runtime.Budget
module Span = Runtime.Span
module Paths = Graphs.Paths

type params = { seed_paths : int; price_at_nodes : bool }

let default_params = { seed_paths = 2; price_at_nodes = false }

(* Pricing rounds per [generate] call; stop after [tailing_off_rounds]
   consecutive rounds whose master objective moved by at most
   [tailing_off_tol] (relative). *)
let max_rounds = 50
let tailing_off_rounds = 4
let tailing_off_tol = 1e-9

type t = {
  fm : Formulation.t;
  params : params;
  inst : Instance.t;
  (* Commodities — (request, virtual link) pairs whose endpoints map to
     distinct substrate nodes — in (request, vlink) order. *)
  cm_req : int array;
  cm_vlink : int array;
  cm_src : int array;
  cm_dst : int array;
  cm_demand : float array;
  conv_row : int array;        (* commodity -> model row index *)
  coup_row : int array array;  (* request -> substrate link -> row, -1 *)
  n_f_columns : int;
  mutable n_path_columns : int;
  mutable session : Lp.Simplex.session option;
  (* Path registry: per commodity, (structural column index, edge ids)
     for every column in the master, newest first.  Seed columns are
     model variables; generated ones exist only in the session's
     enlarged standard form. *)
  paths : (int * int list) list array;
  seen : (int * int list, unit) Hashtbl.t;
  mutable generated : int;
  mutable rounds : int;
}

let formulation t = t.fm
let columns_generated t = t.generated
let pricing_rounds t = t.rounds
let flow_columns t = t.n_f_columns + t.n_path_columns

let arc_flow_columns t =
  let n_links = Substrate.num_links t.inst.Instance.substrate in
  Array.fold_left
    (fun acc (r : Request.t) -> acc + (Request.num_vlinks r * n_links))
    0 t.inst.Instance.requests

let build ?(options = Csigma_model.default_options) ?(params = default_params)
    ?prof ?budget inst =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Colgen_model.build: path master requires fixed node mappings";
  if params.seed_paths < 1 then
    invalid_arg "Colgen_model.build: seed_paths must be >= 1";
  let sub = inst.Instance.substrate in
  let g = Substrate.graph sub in
  let n_nodes = Substrate.num_nodes sub in
  let n_links = Substrate.num_links sub in
  let k = Instance.num_requests inst in
  let cms = ref [] in
  for req = k - 1 downto 0 do
    let r = Instance.request inst req in
    let map = Option.get (Instance.node_mapping inst req) in
    List.iter
      (fun (lv : Graphs.Digraph.edge) ->
        let src = map.(lv.Graphs.Digraph.src)
        and dst = map.(lv.Graphs.Digraph.dst) in
        if src <> dst then
          cms :=
            ( req,
              lv.Graphs.Digraph.id,
              src,
              dst,
              r.Request.link_demand.(lv.Graphs.Digraph.id) )
            :: !cms)
      (List.rev (Graphs.Digraph.edges r.Request.graph))
  done;
  let cms = Array.of_list !cms in
  let n_cm = Array.length cms in
  let cm_req = Array.map (fun (a, _, _, _, _) -> a) cms in
  let cm_vlink = Array.map (fun (_, a, _, _, _) -> a) cms in
  let cm_src = Array.map (fun (_, _, a, _, _) -> a) cms in
  let cm_dst = Array.map (fun (_, _, _, a, _) -> a) cms in
  let cm_demand = Array.map (fun (_, _, _, _, a) -> a) cms in
  let conv_row = Array.make n_cm (-1) in
  let coup_row = Array.init k (fun _ -> Array.make n_links (-1)) in
  let paths = Array.make n_cm [] in
  let seen = Hashtbl.create 64 in
  let n_f = ref 0 and n_path = ref 0 in
  let relax = options.Csigma_model.relax_integrality in
  (* The embedding factory: path-form flow layer with [x_e = [||]].  The
     cΣ machinery consumes only [x_r] and the alloc terms. *)
  let factory model =
    Array.init k (fun req ->
        let r = Instance.request inst req in
        let map = Option.get (Instance.node_mapping inst req) in
        let kind =
          if relax then Lp.Model.Continuous else Lp.Model.Binary
        in
        let x_r = Lp.Model.add_var model ~lb:0.0 ~ub:1.0 ~kind in
        let req_cms =
          List.filter (fun cm -> cm_req.(cm) = req) (List.init n_cm Fun.id)
        in
        let link_alloc =
          if req_cms = [] then Array.make n_links []
          else begin
            let total_demand =
              List.fold_left
                (fun acc cm -> acc +. cm_demand.(cm))
                0.0 req_cms
            in
            let f =
              Array.init n_links (fun _ ->
                  Lp.Model.add_var model ~lb:0.0 ~ub:total_demand)
            in
            n_f := !n_f + n_links;
            (* Seed columns: the k cheapest simple paths by hop count —
               deterministic (Yen with the lexicographic tie-break). *)
            let per_link = Array.make n_links [] in
            List.iter
              (fun cm ->
                let seeds =
                  Paths.k_shortest_paths g
                    ~weight:(fun _ -> 1.0)
                    ~src:cm_src.(cm) ~dst:cm_dst.(cm) ~k:params.seed_paths
                in
                List.iter
                  (fun (p : Paths.weighted_path) ->
                    let v = Lp.Model.add_var model ~lb:0.0 ~ub:1.0 in
                    incr n_path;
                    List.iter
                      (fun ls ->
                        per_link.(ls) <- (v, cm_demand.(cm)) :: per_link.(ls))
                      p.Paths.edges;
                    paths.(cm) <- ((v :> int), p.Paths.edges) :: paths.(cm);
                    Hashtbl.replace seen (cm, p.Paths.edges) ())
                  seeds)
              req_cms;
            (* Coupling rows — written as [≤ 0] so the internal dual is
               sign-constrained (≤ 0) at optimality, which keeps pricing
               arc costs nonnegative. *)
            for ls = 0 to n_links - 1 do
              coup_row.(req).(ls) <- Lp.Model.num_constrs model;
              Lp.Model.add_le model
                ((f.(ls), -1.0) :: List.rev per_link.(ls))
                0.0
            done;
            Array.map (fun fv -> [ (fv, 1.0) ]) f
          end
        in
        List.iter
          (fun cm ->
            conv_row.(cm) <- Lp.Model.num_constrs model;
            Lp.Model.add_eq model
              ((x_r, -1.0)
              :: List.rev_map
                   (fun (col, _) -> (Lp.Model.var_of_id model col, 1.0))
                   paths.(cm))
              0.0)
          req_cms;
        let node_alloc = Embedding.fixed_node_alloc r map x_r ~n_sub:n_nodes in
        {
          Embedding.req_index = req;
          x_r;
          x_v = None;
          x_e = [||];
          node_alloc;
          link_alloc;
        })
  in
  let fm = Csigma_model.build ~options ?prof ?budget ~embeddings:factory inst in
  {
    fm;
    params;
    inst;
    cm_req;
    cm_vlink;
    cm_src;
    cm_dst;
    cm_demand;
    conv_row;
    coup_row;
    n_f_columns = !n_f;
    n_path_columns = !n_path;
    session = None;
    paths;
    seen;
    generated = 0;
    rounds = 0;
  }

let session_of t lp_params =
  match t.session with
  | Some s -> s
  | None ->
    let sf = Lp.Std_form.of_model t.fm.Formulation.model in
    let s = Lp.Simplex.create_session ?params:lp_params sf in
    t.session <- Some s;
    s

let release t = Option.iter Lp.Simplex.session_release t.session

let std_form t =
  match t.session with
  | Some s -> Lp.Simplex.session_std_form s
  | None -> Lp.Std_form.of_model t.fm.Formulation.model

(* Bounds for a master solve: the standard form's own bounds, with the
   integer structurals pinned to a rounded incumbent in [?fixed] mode
   (the branch-and-price-lite reprice pass). *)
let bounds_for ?fixed (sf : Lp.Std_form.t) =
  let lb = Array.copy sf.Lp.Std_form.lb
  and ub = Array.copy sf.Lp.Std_form.ub in
  (match fixed with
  | None -> ()
  | Some x ->
    let n = Array.length x in
    for j = 0 to sf.Lp.Std_form.n_struct - 1 do
      if j < n && sf.Lp.Std_form.integer.(j) then begin
        let v = Float.round x.(j) in
        lb.(j) <- v;
        ub.(j) <- v
      end
    done);
  (lb, ub)

type gen_result = {
  lp : Lp.Simplex.result;
  sf : Lp.Std_form.t;
  rounds : int;
  generated : int;
  converged : bool;
}

let generate ?lp_params ?stats ?prof ?fixed ~budget t =
  let s = session_of t lp_params in
  let sub = t.inst.Instance.substrate in
  let g = Substrate.graph sub in
  let n_nodes = Substrate.num_nodes sub in
  let n_edges = Graphs.Digraph.num_edges g in
  let eps = 1e-7 in
  (* Deterministic pricing cost, billed as an O(n² + E) array-scan
     Dijkstra (the heap kernel that runs does less). *)
  let price_cost = (n_nodes * n_nodes) + n_edges in
  (* One arc-cost buffer, refilled per commodity. *)
  let arc_cost = Array.make n_edges 0.0 in
  let rounds0 = t.rounds and gen0 = t.generated in
  let converged = ref false in
  let last_obj = ref nan and tail = ref 0 in
  let continue_ = ref true in
  let first_solve = ref true in
  let result = ref None in
  while !continue_ do
    let sf = Lp.Simplex.session_std_form s in
    let lb, ub = bounds_for ?fixed sf in
    (* After [session_add_columns] the carried basis is primal feasible
       but dual infeasible by design — resume the primal simplex. *)
    let res =
      Span.with_ prof budget "master" @@ fun () ->
      Lp.Simplex.session_solve s ~budget ?stats ?prof
        ~primal:(not !first_solve) ~lb ~ub ()
    in
    first_solve := false;
    result := Some res;
    if res.Lp.Simplex.status <> Lp.Simplex.Optimal then continue_ := false
    else if Budget.remaining budget <= 0.0 then continue_ := false
    else if t.rounds - rounds0 >= max_rounds then continue_ := false
    else begin
      let obj = res.Lp.Simplex.internal_objective in
      if
        Float.is_finite !last_obj
        && Float.abs (obj -. !last_obj)
           <= tailing_off_tol *. (1.0 +. Float.abs obj)
      then incr tail
      else tail := 0;
      last_obj := obj;
      if !tail >= tailing_off_rounds then continue_ := false
      else begin
        t.rounds <- t.rounds + 1;
        (* [Simplex.result.duals] carries [obj_factor · y]; undo the
           factor to recover the internal (minimization) duals the
           reduced-cost algebra is written in. *)
        let factor = sf.Lp.Std_form.obj_factor in
        let duals = res.Lp.Simplex.duals in
        let y_int i = factor *. duals.(i) in
        let verdicts =
          Span.with_ prof budget "price" @@ fun () ->
          Array.mapi
            (fun cm req ->
              let demand = t.cm_demand.(cm) in
              let rows = t.coup_row.(req) in
              for ls = 0 to n_edges - 1 do
                arc_cost.(ls) <-
                  Float.max 0.0 (-.demand *. (factor *. duals.(rows.(ls))))
              done;
              let c =
                {
                  Paths.Pricer.src = t.cm_src.(cm);
                  dst = t.cm_dst.(cm);
                  arc_cost;
                  threshold = y_int t.conv_row.(cm);
                }
              in
              let v = Paths.Pricer.price g c in
              Budget.tick ~n:price_cost budget;
              v)
            t.cm_req
        in
        (* Deterministic column batch: commodity order, deduplicated
           against every column already in the master. *)
        let fresh = ref [] in
        Array.iteri
          (fun cm (v : Paths.Pricer.verdict) ->
            if Paths.Pricer.improves ~eps v then
              match v.Paths.Pricer.path with
              | Some p when not (Hashtbl.mem t.seen (cm, p.Paths.edges)) ->
                fresh := (cm, p.Paths.edges) :: !fresh
              | _ -> ())
          verdicts;
        let fresh = List.rev !fresh in
        if fresh = [] then begin
          converged := true;
          continue_ := false
        end
        else
          Span.with_ prof budget "add_col" @@ fun () ->
          let cols =
            List.map
              (fun (cm, edges) ->
                let req = t.cm_req.(cm) in
                {
                  Lp.Std_form.col_cost = 0.0;
                  col_lb = 0.0;
                  col_ub = 1.0;
                  col_entries =
                    (t.conv_row.(cm), 1.0)
                    :: List.map
                         (fun ls ->
                           (t.coup_row.(req).(ls), t.cm_demand.(cm)))
                         edges;
                })
              fresh
          in
          let base = sf.Lp.Std_form.n_struct in
          let (_ : Lp.Std_form.t) =
            Lp.Simplex.session_add_columns s ~budget ?stats cols
          in
          List.iteri
            (fun i (cm, edges) ->
              t.paths.(cm) <- (base + i, edges) :: t.paths.(cm);
              Hashtbl.replace t.seen (cm, edges) ())
            fresh;
          let n_new = List.length fresh in
          t.generated <- t.generated + n_new;
          t.n_path_columns <- t.n_path_columns + n_new
      end
    end
  done;
  let lp = match !result with Some r -> r | None -> assert false in
  {
    lp;
    sf = Lp.Simplex.session_std_form s;
    rounds = t.rounds - rounds0;
    generated = t.generated - gen0;
    converged = !converged;
  }

let extract_solution t ~objective value_of =
  let sol = Formulation.extract_solution t.fm ~objective value_of in
  let n_links = Substrate.num_links t.inst.Instance.substrate in
  let n_cm = Array.length t.cm_req in
  let acc = Array.make n_links 0.0 in
  let assignments =
    Array.mapi
      (fun req (a : Solution.assignment) ->
        if not a.Solution.accepted then a
        else begin
          let r = Instance.request t.inst req in
          let flows = Array.make (Request.num_vlinks r) [] in
          for cm = 0 to n_cm - 1 do
            if t.cm_req.(cm) = req then begin
              Array.fill acc 0 n_links 0.0;
              List.iter
                (fun (col, edges) ->
                  let y = value_of col in
                  if y > 1e-9 then
                    List.iter (fun ls -> acc.(ls) <- acc.(ls) +. y) edges)
                t.paths.(cm);
              let fl = ref [] in
              for ls = n_links - 1 downto 0 do
                if acc.(ls) > 1e-9 then fl := (ls, acc.(ls)) :: !fl
              done;
              flows.(t.cm_vlink.(cm)) <- !fl
            end
          done;
          { a with Solution.link_flows = flows }
        end)
      sol.Solution.assignments
  in
  { sol with Solution.assignments }
