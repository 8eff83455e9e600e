type edge = { id : int; src : int; dst : int }

type csr = {
  out_start : int array;
  out_edge : int array;
  out_dst : int array;
  edge_src : int array;
}

(* The edges in insertion order, as the accessors return them. *)
type view = {
  edges_fwd : edge list;
  out_fwd : edge list array;
  in_fwd : edge list array;
  mutable csr : csr option;  (* built on first use *)
}

(* The edges live once, in [arr]; the lists are built from it on the
   first read after an [add_edge].  A read only ever sets [view] to a
   view of the same edges, so concurrent readers are safe. *)
type t = {
  n : int;
  mutable m : int;
  mutable arr : edge array;  (* by id in [0, m); grows by doubling *)
  mutable view : view option;
}

let no_edge = { id = -1; src = -1; dst = -1 }

let create n =
  if n < 0 then invalid_arg "Digraph.create";
  { n; m = 0; arr = Array.make 8 no_edge; view = None }

let add_edge g ~src ~dst =
  if src < 0 || src >= g.n || dst < 0 || dst >= g.n then
    invalid_arg "Digraph.add_edge: node out of range";
  if g.m = Array.length g.arr then begin
    let arr = Array.make (2 * g.m) no_edge in
    Array.blit g.arr 0 arr 0 g.m;
    g.arr <- arr
  end;
  let e = { id = g.m; src; dst } in
  g.arr.(g.m) <- e;
  g.m <- g.m + 1;
  g.view <- None;
  e.id

let num_nodes g = g.n
let num_edges g = g.m

let view g =
  match g.view with
  | Some v -> v
  | None ->
    let edges = ref [] in
    let out_fwd = Array.make g.n [] and in_fwd = Array.make g.n [] in
    for id = g.m - 1 downto 0 do
      let e = g.arr.(id) in
      edges := e :: !edges;
      out_fwd.(e.src) <- e :: out_fwd.(e.src);
      in_fwd.(e.dst) <- e :: in_fwd.(e.dst)
    done;
    let v = { edges_fwd = !edges; out_fwd; in_fwd; csr = None } in
    g.view <- Some v;
    v

let build_csr g v =
  let out_start = Array.make (g.n + 1) 0 in
  for u = 0 to g.n - 1 do
    out_start.(u + 1) <- out_start.(u) + List.length v.out_fwd.(u)
  done;
  let out_edge = Array.make g.m 0 and out_dst = Array.make g.m 0 in
  for u = 0 to g.n - 1 do
    List.iteri
      (fun i e ->
        out_edge.(out_start.(u) + i) <- e.id;
        out_dst.(out_start.(u) + i) <- e.dst)
      v.out_fwd.(u)
  done;
  let edge_src = Array.init g.m (fun id -> g.arr.(id).src) in
  { out_start; out_edge; out_dst; edge_src }

let csr g =
  let v = view g in
  match v.csr with
  | Some c -> c
  | None ->
    let c = build_csr g v in
    v.csr <- Some c;
    c

let edge g id =
  if id < 0 || id >= g.m then invalid_arg "Digraph.edge: unknown id";
  g.arr.(id)

let edges g = (view g).edges_fwd

let out_edges g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph.out_edges";
  (view g).out_fwd.(v)

let in_edges g v =
  if v < 0 || v >= g.n then invalid_arg "Digraph.in_edges";
  (view g).in_fwd.(v)

let out_degree g v = List.length (out_edges g v)
let in_degree g v = List.length (in_edges g v)

let nodes g = List.init g.n (fun i -> i)

let has_edge g ~src ~dst =
  let rec scan id =
    id < g.m && ((g.arr.(id).src = src && g.arr.(id).dst = dst) || scan (id + 1))
  in
  scan 0

let reverse g =
  let r = create g.n in
  List.iter (fun e -> ignore (add_edge r ~src:e.dst ~dst:e.src)) (edges g);
  r

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph: %d nodes, %d edges@," g.n g.m;
  List.iter (fun e -> Format.fprintf ppf "  %d: %d -> %d@," e.id e.src e.dst)
    (edges g);
  Format.fprintf ppf "@]"
