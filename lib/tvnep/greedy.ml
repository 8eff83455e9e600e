type stats = { lp_solves : int; candidates_tried : int }

module Budget = Runtime.Budget
module Rstats = Runtime.Stats

type accepted = {
  a_req : int;
  a_start : float;
  a_end : float;
  mutable a_flows : (int * float) list array;  (* per virtual link *)
}

(* Candidate start times for [req]: window opening plus the breakpoints at
   which the overlap pattern with accepted intervals changes (see mli). *)
let candidate_starts inst req accepted =
  let r = Instance.request inst req in
  let d = r.Request.duration in
  let lo = r.Request.start_min and hi = Request.latest_start r in
  let raw =
    lo
    :: List.concat_map
         (fun a -> [ a.a_start; a.a_end; a.a_start -. d; a.a_end -. d ])
         accepted
  in
  List.sort_uniq compare
    (List.filter (fun s -> s >= lo -. 1e-12 && s <= hi +. 1e-12) raw)
  |> List.map (fun s -> Float.max lo (Float.min hi s))
  |> List.sort_uniq compare

(* Open-interval overlap of (s1,e1) and (s2,e2). *)
let overlaps s1 e1 s2 e2 = s1 < e2 -. 1e-12 && s2 < e1 -. 1e-12

(* Interval breakpoints of all intervals passed, sorted; the states of the
   fixed schedule are the gaps between consecutive breakpoints. *)
let states_of intervals =
  let pts =
    List.concat_map (fun (s, e) -> [ s; e ]) intervals
    |> List.sort_uniq compare
  in
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b) :: pair rest
    | [ _ ] | [] -> []
  in
  pair pts

(* Constant node loads under fixed mappings: reject a candidate without an
   LP when some node would overflow. *)
let node_caps_ok inst active_sets =
  let sub = inst.Instance.substrate in
  let n_nodes = Substrate.num_nodes sub in
  List.for_all
    (fun active ->
      let load = Array.make n_nodes 0.0 in
      List.iter
        (fun req ->
          let r = Instance.request inst req in
          match Instance.node_mapping inst req with
          | Some mapping ->
            Array.iteri
              (fun v host ->
                load.(host) <- load.(host) +. r.Request.node_demand.(v))
              mapping
          | None -> assert false)
        active;
      let ok = ref true in
      for s = 0 to n_nodes - 1 do
        if load.(s) > Substrate.node_cap sub s +. 1e-7 then ok := false
      done;
      !ok)
    active_sets

let active_sets_of participants =
  List.map
    (fun (lo, hi) ->
      List.filter_map
        (fun (req, s, e) -> if overlaps s e lo hi then Some req else None)
        participants)
    (states_of (List.map (fun (_, s, e) -> (s, e)) participants))

(* The LP of [flow_lp] (layout in the mli), and the first flow column of
   each participating request.  The matrix is written column by column in
   its final order: a flow column's two conservation entries (none for a
   substrate self-loop, whose +1 and -1 share a row and cancel), then one
   capacity entry per loaded state the request is active in, in state
   order; the logical columns' -1 last. *)
let assemble inst participants active_sets =
  let sub = inst.Instance.substrate in
  let n_sub = Substrate.num_nodes sub in
  let n_slinks = Substrate.num_links sub in
  let slinks = Array.of_list (Graphs.Digraph.edges (Substrate.graph sub)) in
  let k = Instance.num_requests inst in
  (* First flow column of every participating request (-1 elsewhere). *)
  let first = Array.make k (-1) in
  let n_struct, n_conserve =
    List.fold_left
      (fun (col, row) (req, _, _) ->
        let n_vlinks = Request.num_vlinks (Instance.request inst req) in
        first.(req) <- col;
        (col + (n_vlinks * n_slinks), row + (n_vlinks * n_sub)))
      (0, 0) participants
  in
  (* A state's capacity rows are all empty exactly when every active
     request has zero demand on every virtual link. *)
  let loaded active =
    List.exists
      (fun req ->
        Array.exists
          (fun d -> not (Lina.Tol.is_zero d))
          (Instance.request inst req).Request.link_demand)
      active
  in
  let loaded_sets = List.filter loaded active_sets in
  let n_loaded = List.length loaded_sets in
  let n_rows = n_conserve + (n_loaded * n_slinks) in
  let total = n_struct + n_rows in
  (* The loaded states each request is active in, ascending. *)
  let in_states = Array.make k [] in
  List.iteri
    (fun i active ->
      let st = n_loaded - 1 - i in
      List.iter (fun req -> in_states.(req) <- st :: in_states.(req)) active)
    (List.rev loaded_sets);
  let col_ptr = Array.make (total + 1) 0 in
  let count = ref 0 in
  List.iter
    (fun (req, _, _) ->
      let demand = (Instance.request inst req).Request.link_demand in
      let n_active = List.length in_states.(req) in
      for lv = 0 to Array.length demand - 1 do
        let n_cap = if Lina.Tol.is_zero demand.(lv) then 0 else n_active in
        let base = first.(req) + (lv * n_slinks) in
        for ls = 0 to n_slinks - 1 do
          let e = slinks.(ls) in
          count := !count + (if e.src = e.dst then 0 else 2) + n_cap;
          col_ptr.(base + ls + 1) <- !count
        done
      done)
    participants;
  for i = 0 to n_rows - 1 do
    col_ptr.(n_struct + i + 1) <- !count + i + 1
  done;
  let nnz = col_ptr.(total) in
  let row_idx = Array.make nnz 0 and value = Array.create_float nnz in
  (* Flow columns are [0, 1]; every row sets its logical's bounds below. *)
  let lb = Array.make total 0.0 and ub = Array.make total 1.0 in
  let row = ref 0 in
  List.iter
    (fun (req, _, _) ->
      let r = Instance.request inst req in
      let mapping =
        match Instance.node_mapping inst req with
        | Some m -> m
        | None -> assert false
      in
      let states = in_states.(req) in
      List.iter
        (fun (lv : Graphs.Digraph.edge) ->
          let base = first.(req) + (lv.id * n_slinks) in
          let d = r.Request.link_demand.(lv.id) in
          for ls = 0 to n_slinks - 1 do
            let e = slinks.(ls) in
            let p = ref col_ptr.(base + ls) in
            if e.src <> e.dst then begin
              (* +1 at the source row, -1 at the target row. *)
              let v = if e.src < e.dst then 1.0 else -1.0 in
              row_idx.(!p) <- !row + min e.src e.dst;
              value.(!p) <- v;
              row_idx.(!p + 1) <- !row + max e.src e.dst;
              value.(!p + 1) <- -.v;
              p := !p + 2
            end;
            if not (Lina.Tol.is_zero d) then
              List.iter
                (fun st ->
                  row_idx.(!p) <- n_conserve + (st * n_slinks) + ls;
                  value.(!p) <- d;
                  incr p)
                states
          done;
          for s = 0 to n_sub - 1 do
            let rhs =
              (if mapping.(lv.src) = s then 1.0 else 0.0)
              -. (if mapping.(lv.dst) = s then 1.0 else 0.0)
            in
            lb.(n_struct + !row + s) <- rhs;
            ub.(n_struct + !row + s) <- rhs
          done;
          row := !row + n_sub)
        (Graphs.Digraph.edges r.Request.graph))
    participants;
  for i = n_conserve to n_rows - 1 do
    lb.(n_struct + i) <- neg_infinity;
    ub.(n_struct + i) <- Substrate.link_cap sub ((i - n_conserve) mod n_slinks)
  done;
  for i = 0 to n_rows - 1 do
    row_idx.(col_ptr.(n_struct + i)) <- i;
    value.(col_ptr.(n_struct + i)) <- -1.0
  done;
  let sf =
    {
      Lp.Std_form.n_struct;
      n_rows;
      a = Lina.Csc.of_arrays ~rows:n_rows ~cols:total ~col_ptr ~row_idx ~value;
      cost = Array.init total (fun j -> if j < n_struct then 1.0 else 0.0);
      lb;
      ub;
      obj_const = 0.0;
      obj_factor = 1.0;
      integer = Array.make n_struct false;
    }
  in
  (first, sf)

let flow_lp inst participants =
  snd (assemble inst participants (active_sets_of participants))

(* One feasibility LP: flows for all participating requests, per-state link
   capacities.  Returns the flows per request on success.  A probe that
   overflows a node solves no LP, and only solved LPs are counted in
   [greedy_lp_solves]. *)
let try_schedule ?lp_params ?budget ~stats ?prof inst participants =
  (* participants: (req, start, end) with fixed times; all embedded. *)
  let active_sets = active_sets_of participants in
  if not (node_caps_ok inst active_sets) then None
  else begin
    let first, sf = assemble inst participants active_sets in
    stats.Rstats.greedy_lp_solves <- stats.Rstats.greedy_lp_solves + 1;
    let result = Lp.Simplex.solve ?params:lp_params ?budget ~stats ?prof sf in
    match result.Lp.Simplex.status with
    | Lp.Simplex.Optimal ->
      let n_slinks = Substrate.num_links inst.Instance.substrate in
      let x = result.Lp.Simplex.x in
      let extract req =
        let r = Instance.request inst req in
        Array.init (Request.num_vlinks r) (fun lv ->
            let base = first.(req) + (lv * n_slinks) in
            let acc = ref [] in
            for ls = n_slinks - 1 downto 0 do
              let value = x.(base + ls) in
              if value > 1e-9 then acc := (ls, value) :: !acc
            done;
            !acc)
      in
      Some extract
    | Lp.Simplex.Infeasible -> None
    | Lp.Simplex.Unbounded | Lp.Simplex.Iter_limit | Lp.Simplex.Time_limit
    | Lp.Simplex.Numerical_failure ->
      None
  end

let run ?lp_params ?budget ?stats ?prof ?(preplaced = []) inst =
  if not (Instance.has_fixed_mappings inst) then
    invalid_arg "Greedy.run: fixed node mappings required";
  let budget = match budget with Some b -> b | None -> Budget.create () in
  let rstats = match stats with Some s -> s | None -> Rstats.create () in
  let k = Instance.num_requests inst in
  let preset = List.map fst preplaced in
  let order =
    List.sort
      (fun a b ->
        compare
          ((Instance.request inst a).Request.start_min, a)
          ((Instance.request inst b).Request.start_min, b))
      (List.filter (fun i -> not (List.mem i preset)) (List.init k (fun i -> i)))
  in
  let lp_solves0 = rstats.Rstats.greedy_lp_solves and candidates_tried = ref 0 in
  let accepted : accepted list ref = ref [] in
  (* Install the pre-placed requests (validated, flows solved jointly). *)
  if preplaced <> [] then begin
    List.iter
      (fun (req, start) ->
        if req < 0 || req >= k then
          invalid_arg "Greedy.run: preplaced request out of range";
        if List.length (List.filter (fun (r, _) -> r = req) preplaced) > 1 then
          invalid_arg "Greedy.run: request preplaced twice";
        let r = Instance.request inst req in
        if
          start < r.Request.start_min -. 1e-9
          || start +. r.Request.duration > r.Request.end_max +. 1e-9
        then
          invalid_arg
            (Printf.sprintf "Greedy.run: preplacement of %s outside window"
               r.Request.name))
      preplaced;
    let participants =
      List.map
        (fun (req, start) ->
          (req, start, start +. (Instance.request inst req).Request.duration))
        preplaced
    in
    match
      try_schedule ?lp_params ~budget ~stats:rstats ?prof inst participants
    with
    | Some flows_of ->
      accepted :=
        List.map
          (fun (req, start, stop) ->
            { a_req = req; a_start = start; a_end = stop;
              a_flows = flows_of req })
          participants
    | None -> invalid_arg "Greedy.run: preplacements jointly infeasible"
  end;
  let assignments =
    Array.init k (fun req -> Solution.rejected (Instance.request inst req))
  in
  List.iter
    (fun req ->
      let r = Instance.request inst req in
      let d = r.Request.duration in
      let candidates = candidate_starts inst req !accepted in
      let placed = ref false in
      List.iter
        (fun s ->
          if not !placed then begin
            incr candidates_tried;
            rstats.Rstats.greedy_candidates <-
              rstats.Rstats.greedy_candidates + 1;
            let participants =
              (req, s, s +. d)
              :: List.map (fun a -> (a.a_req, a.a_start, a.a_end)) !accepted
            in
            match
              try_schedule ?lp_params ~budget ~stats:rstats ?prof inst
                participants
            with
            | Some flows_of ->
              placed := true;
              (* Link allocations of previously accepted requests are
                 recomputed (the paper does the same every iteration). *)
              List.iter (fun a -> a.a_flows <- flows_of a.a_req) !accepted;
              accepted :=
                { a_req = req; a_start = s; a_end = s +. d; a_flows = flows_of req }
                :: !accepted
            | None -> ()
          end)
        candidates)
    order;
  List.iter
    (fun a ->
      let mapping =
        match Instance.node_mapping inst a.a_req with
        | Some m -> m
        | None -> assert false
      in
      assignments.(a.a_req) <-
        {
          Solution.accepted = true;
          node_map = mapping;
          link_flows = a.a_flows;
          t_start = a.a_start;
          t_end = a.a_end;
        })
    !accepted;
  let solution = { Solution.assignments; objective = 0.0 } in
  let solution =
    { solution with Solution.objective = Solution.access_control_value inst solution }
  in
  rstats.Rstats.greedy_accepted <-
    rstats.Rstats.greedy_accepted + List.length !accepted;
  ( solution,
    {
      lp_solves = rstats.Rstats.greedy_lp_solves - lp_solves0;
      candidates_tried = !candidates_tried;
    } )
