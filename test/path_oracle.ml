(* The array-scan Dijkstra and Yen's algorithm as [Graphs.Paths] ran them
   before the heap kernel: the oracle the tests check the kernel's
   shortest paths, k-shortest paths and pricing verdicts against, bit
   for bit.  [dijkstra] (full single-source distances) lives only here. *)

module Digraph = Graphs.Digraph

type weighted_path = Graphs.Paths.weighted_path = {
  edges : int list;
  cost : float;
}

(* Deterministic array-scan Dijkstra (substrates here are small); ties
   on distance resolve to the smallest node id, so the parent tree — and
   with it every extracted path — is a pure function of the graph and
   the weights.  [banned_node]/[banned_edge] support Yen's spur
   searches. *)
let dijkstra_filtered g ~weight ~src ~banned_node ~banned_edge =
  let n = Digraph.num_nodes g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  if not (banned_node src) then dist.(src) <- 0.0;
  let continue = ref true in
  while !continue do
    let u = ref (-1) in
    for v = n - 1 downto 0 do
      if (not settled.(v)) && dist.(v) < infinity
         && (!u < 0 || dist.(v) <= dist.(!u))
      then u := v
    done;
    if !u < 0 then continue := false
    else begin
      let u = !u in
      settled.(u) <- true;
      List.iter
        (fun (e : Digraph.edge) ->
          if (not (banned_edge e.id)) && not (banned_node e.dst) then begin
            let w = weight e in
            if w < 0.0 then invalid_arg "Paths: negative arc weight";
            let nd = dist.(u) +. w in
            if nd < dist.(e.dst) then begin
              dist.(e.dst) <- nd;
              parent.(e.dst) <- e.id
            end
          end)
        (Digraph.out_edges g u)
    end
  done;
  (dist, parent)

let no_ban _ = false

let extract_path g ~parent ~dist ~src ~dst =
  if dist.(dst) = infinity then None
  else begin
    let rec build v acc =
      if v = src then acc
      else
        let e = Digraph.edge g parent.(v) in
        build e.Digraph.src (e.Digraph.id :: acc)
    in
    Some { edges = build dst []; cost = dist.(dst) }
  end

let dijkstra g ~weight ~src =
  let n = Digraph.num_nodes g in
  if src < 0 || src >= n then invalid_arg "Paths.dijkstra";
  dijkstra_filtered g ~weight ~src ~banned_node:no_ban ~banned_edge:no_ban

let shortest_weighted_path g ~weight ~src ~dst =
  let n = Digraph.num_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.shortest_weighted_path";
  let dist, parent =
    dijkstra_filtered g ~weight ~src ~banned_node:no_ban ~banned_edge:no_ban
  in
  extract_path g ~parent ~dist ~src ~dst

(* Total order on candidate paths: cost first, then the edge-id sequence
   lexicographically — the tie-break that makes [k_shortest_paths]
   independent of candidate discovery order. *)
let compare_paths = Graphs.Paths.compare_paths

let k_shortest_paths g ~weight ~src ~dst ~k =
  let n = Digraph.num_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.k_shortest_paths";
  if k <= 0 then []
  else if src = dst then [ { edges = []; cost = 0.0 } ]
  else
    match shortest_weighted_path g ~weight ~src ~dst with
    | None -> []
    | Some first ->
        let accepted = ref [ first ] (* newest first *) in
        let candidates = ref [] in
        let finished = ref false in
        while (not !finished) && List.length !accepted < k do
          let prev = List.hd !accepted in
          let prev_edges = Array.of_list prev.edges in
          let all = List.rev !accepted in
          (* Spur from every node of the previous accepted path. *)
          for i = 0 to Array.length prev_edges - 1 do
            let root = Array.sub prev_edges 0 i in
            let root_list = Array.to_list root in
            let spur_node =
              if i = 0 then src else (Digraph.edge g prev_edges.(i - 1)).Digraph.dst
            in
            let root_cost =
              Array.fold_left
                (fun acc e -> acc +. weight (Digraph.edge g e))
                0.0 root
            in
            (* Ban the next edge of every accepted path sharing this
               root, and every root node except the spur node. *)
            let banned_e = Hashtbl.create 8 in
            List.iter
              (fun p ->
                let pe = Array.of_list p.edges in
                if Array.length pe > i
                   && Array.sub pe 0 i = root
                then Hashtbl.replace banned_e pe.(i) ())
              all;
            let banned_n = Hashtbl.create 8 in
            Array.iter
              (fun e ->
                Hashtbl.replace banned_n (Digraph.edge g e).Digraph.src ())
              root;
            let dist, parent =
              dijkstra_filtered g ~weight ~src:spur_node
                ~banned_node:(Hashtbl.mem banned_n)
                ~banned_edge:(Hashtbl.mem banned_e)
            in
            match extract_path g ~parent ~dist ~src:spur_node ~dst with
            | None -> ()
            | Some spur ->
                let total =
                  {
                    edges = root_list @ spur.edges;
                    cost = root_cost +. spur.cost;
                  }
                in
                if (not (List.exists (fun p -> p.edges = total.edges) !candidates))
                   && not (List.exists (fun p -> p.edges = total.edges) all)
                then candidates := total :: !candidates
          done;
          match List.sort compare_paths !candidates with
          | [] -> finished := true
          | best :: rest ->
              accepted := best :: !accepted;
              candidates := rest
        done;
        List.rev !accepted

(* ------------------------------------------------------------------ *)
(* Column-generation pricing: reduced-cost shortest path per commodity *)
(* ------------------------------------------------------------------ *)

module Pricer = struct
  type commodity = {
    src : int;
    dst : int;
    arc_cost : int -> float;  (** dual-adjusted cost per edge id, >= 0 *)
    threshold : float;
        (** a path prices in when [cost(p) - threshold < -eps] *)
  }

  type verdict = {
    path : weighted_path option;
    reduced_cost : float;  (** [cost(path) - threshold]; [infinity] when
                               the destination is unreachable *)
  }

  let price g (c : commodity) =
    let weight (e : Digraph.edge) = c.arc_cost e.Digraph.id in
    match shortest_weighted_path g ~weight ~src:c.src ~dst:c.dst with
    | None -> { path = None; reduced_cost = infinity }
    | Some p -> { path = Some p; reduced_cost = p.cost -. c.threshold }

  let improves ~eps (v : verdict) = v.reduced_cost < -.eps
end
