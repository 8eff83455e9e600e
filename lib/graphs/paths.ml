let bfs_distances g src =
  let n = Digraph.num_nodes g in
  if src < 0 || src >= n then invalid_arg "Paths.bfs_distances";
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (e : Digraph.edge) ->
        if dist.(e.dst) < 0 then begin
          dist.(e.dst) <- dist.(u) + 1;
          Queue.push e.dst q
        end)
      (Digraph.out_edges g u)
  done;
  dist

let reachability g =
  let n = Digraph.num_nodes g in
  Array.init n (fun u ->
      let d = bfs_distances g u in
      Array.init n (fun v -> u = v || d.(v) >= 0))

let topological_sort g =
  let n = Digraph.num_nodes g in
  let indeg = Array.make n 0 in
  List.iter
    (fun (e : Digraph.edge) -> indeg.(e.dst) <- indeg.(e.dst) + 1)
    (Digraph.edges g);
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.push v q
  done;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    incr seen;
    List.iter
      (fun (e : Digraph.edge) ->
        indeg.(e.dst) <- indeg.(e.dst) - 1;
        if indeg.(e.dst) = 0 then Queue.push e.dst q)
      (Digraph.out_edges g u)
  done;
  if !seen = n then Some (List.rev !order) else None

let is_acyclic g = topological_sort g <> None

let floyd_warshall g ~weight =
  let n = Digraph.num_nodes g in
  let d = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0.0
  done;
  List.iter
    (fun (e : Digraph.edge) ->
      let w = weight e in
      if w < d.(e.src).(e.dst) then d.(e.src).(e.dst) <- w)
    (Digraph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if d.(i).(k) < infinity then
        for j = 0 to n - 1 do
          let via = d.(i).(k) +. d.(k).(j) in
          if via < d.(i).(j) then d.(i).(j) <- via
        done
    done
  done;
  d

let max_distances g ~weight =
  if not (is_acyclic g) then invalid_arg "Paths.max_distances: cyclic graph";
  let neg = floyd_warshall g ~weight:(fun e -> -.weight e) in
  Array.map (Array.map (fun w -> if w = infinity then 0.0 else -.w)) neg

(* ------------------------------------------------------------------ *)
(* Weighted shortest paths and k-shortest simple paths (Yen).          *)
(* ------------------------------------------------------------------ *)

type weighted_path = { edges : int list; cost : float }

let path_nodes g (p : weighted_path) ~src =
  let rec go acc u = function
    | [] -> List.rev (u :: acc)
    | e :: rest ->
        let edge = Digraph.edge g e in
        go (u :: acc) edge.Digraph.dst rest
  in
  go [] src p.edges

(* The one shortest-path kernel: Dijkstra from [src] to [dst] over the
   graph's CSR view, with a binary heap keyed by (distance, node).
   Because the key is a total order on the queued nodes, the heap settles
   them in the order of an array scan that picks the least distance and
   the smallest node on ties — so the parent tree, and every extracted
   path, is a pure function of the graph and the weights.  Edges relax in
   [out_edges] order with a strict [<].  The search stops once [dst] is
   settled: with nonnegative weights no later relaxation can lower a
   settled distance, so [dst]'s distance and parent chain are final.

   All state lives in a per-domain scratch.  Marks are stamped: an entry
   is current iff it holds the stamp of the running search, so a search
   clears nothing.  [ban_node]/[ban_edge] support Yen's spur searches. *)
type scratch = {
  mutable stamp : int;
  mutable reached : int array;  (* = stamp once [dist]/[parent] are set *)
  mutable ban_node : int array;
  mutable ban_edge : int array;
  mutable dist : float array;
  mutable parent : int array;  (* edge id into the node *)
  mutable heap : int array;
  mutable pos : int array;  (* heap slot of a queued node *)
  mutable size : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        stamp = 0;
        reached = [||];
        ban_node = [||];
        ban_edge = [||];
        dist = [||];
        parent = [||];
        heap = [||];
        pos = [||];
        size = 0;
      })

(* The domain's scratch, grown to hold [g]. *)
let scratch_for g =
  let s = Domain.DLS.get scratch_key in
  let n = Digraph.num_nodes g and m = Digraph.num_edges g in
  if Array.length s.reached < n then begin
    s.reached <- Array.make n 0;
    s.ban_node <- Array.make n 0;
    s.dist <- Array.create_float n;
    s.parent <- Array.make n 0;
    s.heap <- Array.make n 0;
    s.pos <- Array.make n 0
  end;
  if Array.length s.ban_edge < m then s.ban_edge <- Array.make m 0;
  s

(* Starts a search: a new stamp invalidates every mark of the last one. *)
let fresh s =
  s.stamp <- s.stamp + 1;
  s.size <- 0

let[@inline] before s a b =
  let da = s.dist.(a) and db = s.dist.(b) in
  da < db || (da = db && a < b)

(* Moves node [v], whose key just fell, up from slot [i]. *)
let sift_up s v i =
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let u = s.heap.(p) in
    if before s v u then begin
      s.heap.(!i) <- u;
      s.pos.(u) <- !i;
      i := p
    end
    else moving := false
  done;
  s.heap.(!i) <- v;
  s.pos.(v) <- !i

let pop_min s =
  let top = s.heap.(0) in
  s.size <- s.size - 1;
  if s.size > 0 then begin
    let v = s.heap.(s.size) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= s.size then moving := false
      else begin
        let c =
          if l + 1 < s.size && before s s.heap.(l + 1) s.heap.(l) then l + 1
          else l
        in
        let cv = s.heap.(c) in
        if before s cv v then begin
          s.heap.(!i) <- cv;
          s.pos.(cv) <- !i;
          i := c
        end
        else moving := false
      end
    done;
    s.heap.(!i) <- v;
    s.pos.(v) <- !i
  end;
  top

(* Settles nodes until [dst] is settled (true) or none is left (false).
   [w] holds a nonnegative weight per edge id.  A settled node is never
   relaxed again: its distance is at most the one being settled, which no
   nonnegative weight lowers. *)
let search s (c : Digraph.csr) w ~src ~dst =
  let st = s.stamp in
  if s.ban_node.(src) <> st then begin
    s.reached.(src) <- st;
    s.dist.(src) <- 0.0;
    s.parent.(src) <- -1;
    sift_up s src 0;
    s.size <- 1
  end;
  let found = ref false in
  while (not !found) && s.size > 0 do
    let u = pop_min s in
    if u = dst then found := true
    else begin
      let du = s.dist.(u) in
      for p = c.Digraph.out_start.(u) to c.Digraph.out_start.(u + 1) - 1 do
        let e = c.Digraph.out_edge.(p) and v = c.Digraph.out_dst.(p) in
        if s.ban_edge.(e) <> st && s.ban_node.(v) <> st then begin
          let nd = du +. w.(e) in
          if s.reached.(v) <> st then begin
            if nd < infinity then begin
              s.reached.(v) <- st;
              s.dist.(v) <- nd;
              s.parent.(v) <- e;
              sift_up s v s.size;
              s.size <- s.size + 1
            end
          end
          else if nd < s.dist.(v) then begin
            s.dist.(v) <- nd;
            s.parent.(v) <- e;
            sift_up s v s.pos.(v)
          end
        end
      done
    end
  done;
  !found

(* The edges from [src] to a settled [dst]. *)
let extract s (c : Digraph.csr) ~src ~dst =
  let edges = ref [] and v = ref dst in
  while !v <> src do
    let e = s.parent.(!v) in
    edges := e :: !edges;
    v := c.Digraph.edge_src.(e)
  done;
  !edges

let check_weights w m =
  for e = 0 to m - 1 do
    if w.(e) < 0.0 then invalid_arg "Paths: negative arc weight"
  done

(* Every edge's weight, by id — each checked, since an early exit may
   never reach a negative one. *)
let weights g weight =
  let m = Digraph.num_edges g in
  let w = Array.create_float m in
  for e = 0 to m - 1 do
    w.(e) <- weight (Digraph.edge g e)
  done;
  check_weights w m;
  w

let shortest g w ~src ~dst =
  let c = Digraph.csr g and s = scratch_for g in
  fresh s;
  if search s c w ~src ~dst then
    Some { edges = extract s c ~src ~dst; cost = s.dist.(dst) }
  else None

let shortest_weighted_path g ~weight ~src ~dst =
  let n = Digraph.num_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.shortest_weighted_path";
  shortest g (weights g weight) ~src ~dst

(* Total order on candidate paths: cost first, then the edge-id sequence
   lexicographically — the tie-break that makes [k_shortest_paths]
   independent of candidate discovery order. *)
let compare_paths a b =
  let c = Float.compare a.cost b.cost in
  if c <> 0 then c else compare a.edges b.edges

let same_prefix a b len =
  let rec go i = i >= len || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let k_shortest_paths g ~weight ~src ~dst ~k =
  let n = Digraph.num_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.k_shortest_paths";
  if k <= 0 then []
  else if src = dst then [ { edges = []; cost = 0.0 } ]
  else
    let w = weights g weight in
    match shortest g w ~src ~dst with
    | None -> []
    | Some first ->
        let c = Digraph.csr g and s = scratch_for g in
        let accepted = ref [ first ] (* newest first *) in
        let accepted_edges = ref [ Array.of_list first.edges ] in
        let candidates = ref [] in
        let finished = ref false in
        while (not !finished) && List.length !accepted < k do
          let prev = List.hd !accepted_edges in
          let root_cost = ref 0.0 in
          (* Spur from every node of the previous accepted path. *)
          for i = 0 to Array.length prev - 1 do
            let spur_node = c.Digraph.edge_src.(prev.(i)) in
            (* Ban the next edge of every accepted path sharing this
               root, and every root node except the spur node. *)
            fresh s;
            List.iter
              (fun pe ->
                if Array.length pe > i && same_prefix pe prev i then
                  s.ban_edge.(pe.(i)) <- s.stamp)
              !accepted_edges;
            for j = 0 to i - 1 do
              s.ban_node.(c.Digraph.edge_src.(prev.(j))) <- s.stamp
            done;
            if search s c w ~src:spur_node ~dst then begin
              let rec root j acc =
                if j = 0 then acc else root (j - 1) (prev.(j - 1) :: acc)
              in
              let edges = root i (extract s c ~src:spur_node ~dst) in
              let total = { edges; cost = !root_cost +. s.dist.(dst) } in
              if (not (List.exists (fun p -> p.edges = edges) !candidates))
                 && not (List.exists (fun p -> p.edges = edges) !accepted)
              then candidates := total :: !candidates
            end;
            root_cost := !root_cost +. w.(prev.(i))
          done;
          match List.sort compare_paths !candidates with
          | [] -> finished := true
          | best :: rest ->
              accepted := best :: !accepted;
              accepted_edges := Array.of_list best.edges :: !accepted_edges;
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
    arc_cost : float array;
    threshold : float;
  }

  type verdict = {
    path : weighted_path option;
    reduced_cost : float;
  }

  let price g (c : commodity) =
    let n = Digraph.num_nodes g and m = Digraph.num_edges g in
    if
      c.src < 0 || c.src >= n || c.dst < 0 || c.dst >= n
      || Array.length c.arc_cost < m
    then invalid_arg "Paths.Pricer.price";
    check_weights c.arc_cost m;
    match shortest g c.arc_cost ~src:c.src ~dst:c.dst with
    | None -> { path = None; reduced_cost = infinity }
    | Some p -> { path = Some p; reduced_cost = p.cost -. c.threshold }

  let improves ~eps (v : verdict) = v.reduced_cost < -.eps
end

let shortest_path g ~src ~dst =
  let n = Digraph.num_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.shortest_path";
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  visited.(src) <- true;
  let q = Queue.create () in
  Queue.push src q;
  let found = ref (src = dst) in
  while (not !found) && not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (e : Digraph.edge) ->
        if not visited.(e.dst) then begin
          visited.(e.dst) <- true;
          parent.(e.dst) <- u;
          if e.dst = dst then found := true;
          Queue.push e.dst q
        end)
      (Digraph.out_edges g u)
  done;
  if not !found then None
  else begin
    let rec build v acc = if v = src then src :: acc else build parent.(v) (v :: acc) in
    Some (build dst [])
  end
