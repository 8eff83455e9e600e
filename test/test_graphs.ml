(* Graph library tests: generators, traversals, Floyd-Warshall. *)

let digraph_tests =
  [
    Alcotest.test_case "edges and adjacency" `Quick (fun () ->
        let g = Graphs.Digraph.create 3 in
        let e0 = Graphs.Digraph.add_edge g ~src:0 ~dst:1 in
        let e1 = Graphs.Digraph.add_edge g ~src:1 ~dst:2 in
        let e2 = Graphs.Digraph.add_edge g ~src:0 ~dst:2 in
        Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] [ e0; e1; e2 ];
        Alcotest.(check int) "out deg 0" 2 (Graphs.Digraph.out_degree g 0);
        Alcotest.(check int) "in deg 2" 2 (Graphs.Digraph.in_degree g 2);
        Alcotest.(check bool) "has_edge" true
          (Graphs.Digraph.has_edge g ~src:0 ~dst:2);
        Alcotest.(check bool) "no reverse" false
          (Graphs.Digraph.has_edge g ~src:2 ~dst:0));
    Alcotest.test_case "reverse preserves ids" `Quick (fun () ->
        let g = Graphs.Digraph.create 2 in
        let e = Graphs.Digraph.add_edge g ~src:0 ~dst:1 in
        let r = Graphs.Digraph.reverse g in
        let edge = Graphs.Digraph.edge r e in
        Alcotest.(check int) "src" 1 edge.Graphs.Digraph.src;
        Alcotest.(check int) "dst" 0 edge.Graphs.Digraph.dst);
    Alcotest.test_case "bad endpoints rejected" `Quick (fun () ->
        let g = Graphs.Digraph.create 1 in
        Alcotest.check_raises "raise"
          (Invalid_argument "Digraph.add_edge: node out of range") (fun () ->
            ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1)));
  ]

let generator_tests =
  [
    Alcotest.test_case "paper grid dimensions" `Quick (fun () ->
        (* The paper's substrate: 4x5 grid, 20 nodes, 62 directed links. *)
        let g = Graphs.Generators.grid ~rows:4 ~cols:5 in
        Alcotest.(check int) "nodes" 20 (Graphs.Digraph.num_nodes g);
        Alcotest.(check int) "directed links" 62 (Graphs.Digraph.num_edges g));
    Alcotest.test_case "grid connectivity" `Quick (fun () ->
        let g = Graphs.Generators.grid ~rows:3 ~cols:3 in
        let d = Graphs.Paths.bfs_distances g 0 in
        Alcotest.(check int) "corner to corner" 4 d.(8);
        Alcotest.(check bool) "all reachable" true
          (Array.for_all (fun x -> x >= 0) d));
    Alcotest.test_case "star orientations" `Quick (fun () ->
        let t = Graphs.Generators.star ~leaves:4 ~orientation:Graphs.Generators.To_center in
        Alcotest.(check int) "in-degree center" 4 (Graphs.Digraph.in_degree t 0);
        Alcotest.(check int) "out-degree center" 0 (Graphs.Digraph.out_degree t 0);
        let f = Graphs.Generators.star ~leaves:4 ~orientation:Graphs.Generators.From_center in
        Alcotest.(check int) "out-degree center" 4 (Graphs.Digraph.out_degree f 0));
    Alcotest.test_case "path and ring" `Quick (fun () ->
        let p = Graphs.Generators.path 5 in
        Alcotest.(check int) "path edges" 4 (Graphs.Digraph.num_edges p);
        Alcotest.(check bool) "path acyclic" true (Graphs.Paths.is_acyclic p);
        let r = Graphs.Generators.ring 5 in
        Alcotest.(check int) "ring edges" 5 (Graphs.Digraph.num_edges r);
        Alcotest.(check bool) "ring cyclic" false (Graphs.Paths.is_acyclic r));
    Alcotest.test_case "complete bidirected" `Quick (fun () ->
        let g = Graphs.Generators.complete_bidirected 4 in
        Alcotest.(check int) "edges" 12 (Graphs.Digraph.num_edges g));
    Alcotest.test_case "gnp extremes" `Quick (fun () ->
        let rng = Workload.Rng.create 1L in
        let uniform () = Workload.Rng.float rng in
        let empty = Graphs.Generators.random_gnp ~n:5 ~p:0.0 ~uniform in
        Alcotest.(check int) "p=0" 0 (Graphs.Digraph.num_edges empty);
        let full = Graphs.Generators.random_gnp ~n:5 ~p:1.0 ~uniform in
        Alcotest.(check int) "p=1" 20 (Graphs.Digraph.num_edges full));
  ]

let paths_tests =
  [
    Alcotest.test_case "topological sort on a DAG" `Quick (fun () ->
        let g = Graphs.Digraph.create 4 in
        ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
        ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:2);
        ignore (Graphs.Digraph.add_edge g ~src:1 ~dst:3);
        ignore (Graphs.Digraph.add_edge g ~src:2 ~dst:3);
        match Graphs.Paths.topological_sort g with
        | None -> Alcotest.fail "DAG expected"
        | Some order ->
          let posn = Array.make 4 0 in
          List.iteri (fun i x -> posn.(x) <- i) order;
          Alcotest.(check bool) "edges forward" true
            (List.for_all
               (fun (e : Graphs.Digraph.edge) -> posn.(e.src) < posn.(e.dst))
               (Graphs.Digraph.edges g)));
    Alcotest.test_case "floyd-warshall shortest" `Quick (fun () ->
        let g = Graphs.Generators.ring 4 in
        let d = Graphs.Paths.floyd_warshall g ~weight:(fun _ -> 1.0) in
        Alcotest.(check (float 1e-9)) "around ring" 3.0 d.(0).(3);
        Alcotest.(check (float 1e-9)) "self" 0.0 d.(2).(2));
    Alcotest.test_case "max_distances on a DAG" `Quick (fun () ->
        (* diamond 0->1->3, 0->2->3 with weights: longest 0->3 = 2 *)
        let g = Graphs.Digraph.create 4 in
        ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
        ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:3);
        ignore (Graphs.Digraph.add_edge g ~src:1 ~dst:3);
        let d = Graphs.Paths.max_distances g ~weight:(fun _ -> 1.0) in
        Alcotest.(check (float 1e-9)) "longest 0->3" 2.0 d.(0).(3);
        Alcotest.(check (float 1e-9)) "unreachable is 0" 0.0 d.(3).(0));
    Alcotest.test_case "max_distances rejects cycles" `Quick (fun () ->
        let g = Graphs.Generators.ring 3 in
        Alcotest.check_raises "raise"
          (Invalid_argument "Paths.max_distances: cyclic graph") (fun () ->
            ignore (Graphs.Paths.max_distances g ~weight:(fun _ -> 1.0))));
    Alcotest.test_case "shortest_path endpoints" `Quick (fun () ->
        let g = Graphs.Generators.grid ~rows:2 ~cols:3 in
        match Graphs.Paths.shortest_path g ~src:0 ~dst:5 with
        | None -> Alcotest.fail "connected"
        | Some path ->
          Alcotest.(check int) "starts" 0 (List.hd path);
          Alcotest.(check int) "ends" 5 (List.nth path (List.length path - 1));
          Alcotest.(check int) "hops" 4 (List.length path));
    Alcotest.test_case "reachability closure" `Quick (fun () ->
        let g = Graphs.Generators.path 3 in
        let r = Graphs.Paths.reachability g in
        Alcotest.(check bool) "0->2" true r.(0).(2);
        Alcotest.(check bool) "2->0" false r.(2).(0);
        Alcotest.(check bool) "diagonal" true r.(1).(1));
  ]

let yen_tests =
  [
    Alcotest.test_case "dijkstra matches floyd-warshall" `Quick (fun () ->
        let g = Graphs.Generators.grid ~rows:3 ~cols:3 in
        let weight (e : Graphs.Digraph.edge) =
          float_of_int ((e.Graphs.Digraph.src + e.Graphs.Digraph.dst) mod 3)
          +. 0.5
        in
        let fw = Graphs.Paths.floyd_warshall g ~weight in
        let dist, _ = Path_oracle.dijkstra g ~weight ~src:0 in
        Array.iteri
          (fun t d ->
            Alcotest.(check (float 1e-9)) "oracle dist" fw.(0).(t) d;
            match Graphs.Paths.shortest_weighted_path g ~weight ~src:0 ~dst:t with
            | Some p ->
              Alcotest.(check (float 1e-9)) "kernel cost" fw.(0).(t)
                p.Graphs.Paths.cost
            | None -> Alcotest.fail "grid is connected")
          dist);
    Alcotest.test_case "dijkstra rejects negative weights" `Quick (fun () ->
        let g = Graphs.Generators.ring 3 in
        let negative () =
          ignore
            (Graphs.Paths.shortest_weighted_path g ~weight:(fun _ -> -1.0)
               ~src:0 ~dst:1)
        in
        Alcotest.check_raises "raise"
          (Invalid_argument "Paths: negative arc weight") negative;
        (* The search would stop at node 1 before it reached edge 2 -> 0;
           the weight check does not depend on the search. *)
        let weight (e : Graphs.Digraph.edge) =
          if e.Graphs.Digraph.src = 2 then -1.0 else 1.0
        in
        let far () =
          ignore (Graphs.Paths.shortest_weighted_path g ~weight ~src:0 ~dst:1)
        in
        Alcotest.check_raises "unreached edge"
          (Invalid_argument "Paths: negative arc weight") far;
        let k2 () =
          ignore (Graphs.Paths.k_shortest_paths g ~weight ~src:0 ~dst:1 ~k:2)
        in
        Alcotest.check_raises "yen"
          (Invalid_argument "Paths: negative arc weight") k2;
        let price () =
          ignore
            (Graphs.Paths.Pricer.price g
               { Graphs.Paths.Pricer.src = 0; dst = 1;
                 arc_cost = [| 1.0; 1.0; -1.0 |]; threshold = 0.0 })
        in
        Alcotest.check_raises "pricer"
          (Invalid_argument "Paths: negative arc weight") price);
    Alcotest.test_case "yen on a diamond finds both paths" `Quick (fun () ->
        (* 0->1->3 (cost 2), 0->2->3 (cost 3): exactly two simple paths,
           asking for ten returns two, in cost order. *)
        let g = Graphs.Digraph.create 4 in
        let e01 = Graphs.Digraph.add_edge g ~src:0 ~dst:1 in
        let e13 = Graphs.Digraph.add_edge g ~src:1 ~dst:3 in
        let e02 = Graphs.Digraph.add_edge g ~src:0 ~dst:2 in
        let e23 = Graphs.Digraph.add_edge g ~src:2 ~dst:3 in
        let weight (e : Graphs.Digraph.edge) =
          if e.Graphs.Digraph.id = e23 then 2.0 else 1.0
        in
        match Graphs.Paths.k_shortest_paths g ~weight ~src:0 ~dst:3 ~k:10 with
        | [ p1; p2 ] ->
          Alcotest.(check (list int)) "cheapest" [ e01; e13 ]
            p1.Graphs.Paths.edges;
          Alcotest.(check (list int)) "second" [ e02; e23 ]
            p2.Graphs.Paths.edges;
          Alcotest.(check (float 1e-9)) "costs" 2.0 p1.Graphs.Paths.cost;
          Alcotest.(check (float 1e-9)) "costs" 3.0 p2.Graphs.Paths.cost
        | l -> Alcotest.failf "expected 2 paths, got %d" (List.length l));
    Alcotest.test_case "yen src = dst is the empty path" `Quick (fun () ->
        let g = Graphs.Generators.ring 3 in
        match
          Graphs.Paths.k_shortest_paths g ~weight:(fun _ -> 1.0) ~src:1 ~dst:1
            ~k:4
        with
        | [ p ] ->
          Alcotest.(check (list int)) "empty" [] p.Graphs.Paths.edges;
          Alcotest.(check (float 1e-9)) "zero" 0.0 p.Graphs.Paths.cost
        | l -> Alcotest.failf "expected 1 path, got %d" (List.length l));
    Alcotest.test_case "pricer verdict and threshold" `Quick (fun () ->
        let g = Graphs.Generators.path 3 in
        (* 0->1->2 with unit arc costs: path cost 2. *)
        let c t =
          { Graphs.Paths.Pricer.src = 0; dst = 2;
            arc_cost = [| 1.0; 1.0 |]; threshold = t }
        in
        let v = Graphs.Paths.Pricer.price g (c 3.0) in
        Alcotest.(check (float 1e-9)) "reduced" (-1.0)
          v.Graphs.Paths.Pricer.reduced_cost;
        Alcotest.(check bool) "improves" true
          (Graphs.Paths.Pricer.improves ~eps:1e-7 v);
        let v = Graphs.Paths.Pricer.price g (c 2.0) in
        Alcotest.(check bool) "at par does not improve" false
          (Graphs.Paths.Pricer.improves ~eps:1e-7 v);
        (* Unreachable: the path graph has no 2->0 arcs. *)
        let v =
          Graphs.Paths.Pricer.price g
            { Graphs.Paths.Pricer.src = 2; dst = 0;
              arc_cost = [| 1.0; 1.0 |]; threshold = 100.0 }
        in
        Alcotest.(check bool) "unreachable" true
          (v.Graphs.Paths.Pricer.path = None
          && v.Graphs.Paths.Pricer.reduced_cost = infinity));
  ]

let yen_properties =
  let is_simple g src (p : Graphs.Paths.weighted_path) =
    let nodes = Graphs.Paths.path_nodes g p ~src in
    List.length (List.sort_uniq compare nodes) = List.length nodes
  in
  [
    Seeded.to_alcotest ~seed:5101
      (QCheck2.Test.make
         ~name:"yen: simple, ascending, distinct, head = dijkstra" ~count:40
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 17)) in
           let n = 3 + Workload.Rng.int rng 7 in
           let g =
             Graphs.Generators.random_gnp ~n ~p:0.4 ~uniform:(fun () ->
                 Workload.Rng.float rng)
           in
           let w = Array.init (Graphs.Digraph.num_edges g) (fun _ ->
               Workload.Rng.float rng *. 4.0) in
           let weight (e : Graphs.Digraph.edge) = w.(e.Graphs.Digraph.id) in
           let src = Workload.Rng.int rng n
           and dst = Workload.Rng.int rng n in
           let k = 1 + Workload.Rng.int rng 5 in
           let ps = Graphs.Paths.k_shortest_paths g ~weight ~src ~dst ~k in
           let all_simple = List.for_all (is_simple g src) ps in
           let rec ascending = function
             | a :: (b :: _ as rest) ->
               Graphs.Paths.compare_paths a b < 0 && ascending rest
             | _ -> true
           in
           let head_ok =
             match (ps, Graphs.Paths.shortest_weighted_path g ~weight ~src ~dst)
             with
             | [], None -> true
             | p :: _, Some q -> Graphs.Paths.compare_paths p q = 0
             | _ -> false
           in
           all_simple && ascending ps && List.length ps <= k && head_ok));
    Seeded.to_alcotest ~seed:5102
      (QCheck2.Test.make ~name:"yen: deterministic across calls" ~count:20
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 41)) in
           let n = 3 + Workload.Rng.int rng 6 in
           let g =
             Graphs.Generators.random_gnp ~n ~p:0.5 ~uniform:(fun () ->
                 Workload.Rng.float rng)
           in
           (* Integer-valued weights force cost ties; the edge-id
              tie-break must still make the ranking reproducible. *)
           let w = Array.init (Graphs.Digraph.num_edges g) (fun _ ->
               float_of_int (1 + Workload.Rng.int rng 2)) in
           let weight (e : Graphs.Digraph.edge) = w.(e.Graphs.Digraph.id) in
           let run () =
             Graphs.Paths.k_shortest_paths g ~weight ~src:0 ~dst:(n - 1) ~k:6
           in
           run () = run ()));
  ]

(* The heap kernel against the array scan it replaced ([Path_oracle]):
   the same edge lists and bit-identical costs from
   [shortest_weighted_path], [k_shortest_paths] at k = 1..4 and
   [Pricer.price], on seeded graphs built to stress the tie-breaks —
   integer weights from {0, 1, 2} (zero-weight cycles included), parallel
   edges and self-loops, sparse graphs with unreachable targets, and
   bidirected grids with unit and integer weights. *)
let oracle_tests =
  let bits = Int64.bits_of_float in
  let same_path (p : Graphs.Paths.weighted_path)
      (q : Graphs.Paths.weighted_path) =
    p.Graphs.Paths.edges = q.Graphs.Paths.edges
    && bits p.Graphs.Paths.cost = bits q.Graphs.Paths.cost
  in
  let same_opt a b =
    match (a, b) with
    | None, None -> true
    | Some p, Some q -> same_path p q
    | _ -> false
  in
  (* Random multigraph: [m] edges with uniform endpoints. *)
  let multigraph rng n m =
    let g = Graphs.Digraph.create n in
    for _ = 1 to m do
      ignore
        (Graphs.Digraph.add_edge g ~src:(Workload.Rng.int rng n)
           ~dst:(Workload.Rng.int rng n))
    done;
    g
  in
  let graph rng case =
    match case mod 4 with
    | 0 ->
      let n = 2 + Workload.Rng.int rng 11 in
      Graphs.Generators.random_gnp ~n ~p:0.35 ~uniform:(fun () ->
          Workload.Rng.float rng)
    | 1 ->
      let n = 2 + Workload.Rng.int rng 11 in
      multigraph rng n (Workload.Rng.int rng (3 * n))
    | 2 ->
      let n = 2 + Workload.Rng.int rng 11 in
      Graphs.Generators.random_gnp ~n ~p:0.12 ~uniform:(fun () ->
          Workload.Rng.float rng)
    | _ ->
      Graphs.Generators.grid ~rows:(1 + Workload.Rng.int rng 5)
        ~cols:(2 + Workload.Rng.int rng 6)
  in
  let weights rng g case =
    let m = Graphs.Digraph.num_edges g in
    match case mod 3 with
    | 0 -> Array.init m (fun _ -> float_of_int (Workload.Rng.int rng 3))
    | 1 -> Array.make m 1.0
    | _ -> Array.init m (fun _ -> Workload.Rng.float rng *. 4.0)
  in
  [
    Alcotest.test_case "kernel equals the array-scan oracle" `Quick (fun () ->
        let rng = Workload.Rng.create 5104L in
        let checked = ref 0 and unreachable = ref 0 in
        for case = 0 to 5999 do
          let g = graph rng case in
          let w = weights rng g (case / 4) in
          let weight (e : Graphs.Digraph.edge) = w.(e.Graphs.Digraph.id) in
          let n = Graphs.Digraph.num_nodes g in
          let src = Workload.Rng.int rng n and dst = Workload.Rng.int rng n in
          let fail what =
            Alcotest.failf "case %d (%s): %d nodes, %d edges, %d -> %d" case
              what n (Graphs.Digraph.num_edges g) src dst
          in
          let p = Graphs.Paths.shortest_weighted_path g ~weight ~src ~dst in
          if p = None then incr unreachable;
          if not (same_opt p (Path_oracle.shortest_weighted_path g ~weight ~src ~dst))
          then fail "shortest_weighted_path";
          for k = 1 to 4 do
            let ps = Graphs.Paths.k_shortest_paths g ~weight ~src ~dst ~k
            and qs = Path_oracle.k_shortest_paths g ~weight ~src ~dst ~k in
            if not (List.length ps = List.length qs && List.for_all2 same_path ps qs)
            then fail (Printf.sprintf "k_shortest_paths k=%d" k)
          done;
          let threshold = float_of_int (Workload.Rng.int rng 6) in
          let v =
            Graphs.Paths.Pricer.price g
              { Graphs.Paths.Pricer.src; dst; arc_cost = w; threshold }
          and o =
            Path_oracle.Pricer.price g
              { Path_oracle.Pricer.src; dst; arc_cost = Array.get w; threshold }
          in
          if
            not
              (same_opt v.Graphs.Paths.Pricer.path o.Path_oracle.Pricer.path
              && bits v.Graphs.Paths.Pricer.reduced_cost
                 = bits o.Path_oracle.Pricer.reduced_cost)
          then fail "Pricer.price";
          incr checked
        done;
        Printf.printf "kernel = oracle on %d cases (%d unreachable)\n" !checked
          !unreachable;
        Alcotest.(check bool) "some targets unreachable" true (!unreachable > 0);
        Alcotest.(check int) "cases" 6000 !checked);
  ]

(* Once built, the adjacency views and the CSR view cost nothing to
   read, and a search on a warm scratch allocates only the path it
   returns. *)
let allocation_tests =
  [
    Alcotest.test_case "views and searches allocate only results" `Quick
      (fun () ->
        let g = Graphs.Generators.grid ~rows:7 ~cols:8 in
        let n = Graphs.Digraph.num_nodes g in
        let read () =
          ignore (Graphs.Digraph.edges g);
          ignore (Graphs.Digraph.out_edges g 5);
          ignore (Graphs.Digraph.in_edges g 5);
          ignore (Graphs.Digraph.csr g)
        in
        read ();
        Alcotest.(check (float 0.0)) "views" 0.0 (Gc_probe.allocated_words read);
        let c =
          { Graphs.Paths.Pricer.src = 0; dst = n - 1;
            arc_cost = Array.make (Graphs.Digraph.num_edges g) 1.0;
            threshold = 0.0 }
        in
        let price () = ignore (Graphs.Paths.Pricer.price g c) in
        price ();
        (* The 13-edge path: its list, record, option and verdict, with
           two boxed floats. *)
        let words = Gc_probe.allocated_words price in
        Printf.printf "Pricer.price on the 7x8 grid: %.0f words\n" words;
        if words > float_of_int ((3 * 13) + 16) then
          Alcotest.failf "Pricer.price allocated %.0f words" words);
  ]

let path_properties =
  [
    Seeded.to_alcotest ~seed:5103
      (QCheck2.Test.make ~name:"FW(unit weights) equals BFS distances"
         ~count:30
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 9)) in
           let n = 2 + Workload.Rng.int rng 8 in
           let g =
             Graphs.Generators.random_gnp ~n ~p:0.3 ~uniform:(fun () ->
                 Workload.Rng.float rng)
           in
           let fw = Graphs.Paths.floyd_warshall g ~weight:(fun _ -> 1.0) in
           let ok = ref true in
           for s = 0 to n - 1 do
             let bfs = Graphs.Paths.bfs_distances g s in
             for t = 0 to n - 1 do
               let expect = if bfs.(t) < 0 then infinity else float_of_int bfs.(t) in
               if fw.(s).(t) <> expect then ok := false
             done
           done;
           !ok));
  ]

let suite =
  [
    ("graphs.digraph", digraph_tests @ allocation_tests);
    ("graphs.generators", generator_tests);
    ("graphs.paths", paths_tests @ path_properties);
    ("graphs.yen", yen_tests @ yen_properties @ oracle_tests);
  ]
