(* Temporal dependency graph: structure, ranges, cuts. *)

let star_request ~name ~duration ~start_min ~end_max =
  let g = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.To_center in
  Tvnep.Request.make ~name ~graph:g ~node_demand:[| 1.0; 1.0 |]
    ~link_demand:[| 0.5 |] ~duration ~start_min ~end_max

let tiny_substrate () =
  let g = Graphs.Generators.grid ~rows:1 ~cols:2 in
  Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:10.0

let make_instance requests horizon =
  Tvnep.Instance.make
    ~node_mappings:(Array.map (fun _ -> [| 0; 1 |]) (Array.of_list requests))
    ~substrate:(tiny_substrate ())
    ~requests:(Array.of_list requests)
    ~horizon ()

(* Two strictly ordered requests: A entirely before B. *)
let ordered_instance () =
  make_instance
    [
      star_request ~name:"A" ~duration:1.0 ~start_min:0.0 ~end_max:2.0;
      star_request ~name:"B" ~duration:1.0 ~start_min:3.0 ~end_max:5.0;
    ]
    6.0

(* Two fully overlapping flexible requests: no forced order. *)
let free_instance () =
  make_instance
    [
      star_request ~name:"A" ~duration:1.0 ~start_min:0.0 ~end_max:6.0;
      star_request ~name:"B" ~duration:1.0 ~start_min:0.0 ~end_max:6.0;
    ]
    6.0

let graph_tests =
  [
    Alcotest.test_case "earliest/latest" `Quick (fun () ->
        let inst = ordered_instance () in
        let s0 = { Tvnep.Depgraph.req = 0; kind = Tvnep.Depgraph.Start } in
        let e0 = { Tvnep.Depgraph.req = 0; kind = Tvnep.Depgraph.End } in
        Alcotest.(check (float 1e-9)) "earliest start" 0.0
          (Tvnep.Depgraph.earliest inst s0);
        Alcotest.(check (float 1e-9)) "latest start" 1.0
          (Tvnep.Depgraph.latest inst s0);
        Alcotest.(check (float 1e-9)) "earliest end" 1.0
          (Tvnep.Depgraph.earliest inst e0);
        Alcotest.(check (float 1e-9)) "latest end" 2.0
          (Tvnep.Depgraph.latest inst e0));
    Alcotest.test_case "vertex encoding roundtrip" `Quick (fun () ->
        for n = 0 to 9 do
          let v = Tvnep.Depgraph.vertex_of_node n in
          Alcotest.(check int) "roundtrip" n (Tvnep.Depgraph.node_of_vertex v)
        done);
    Alcotest.test_case "forced order creates edges" `Quick (fun () ->
        let inst = ordered_instance () in
        let g = Tvnep.Depgraph.graph inst in
        (* A.end (node 1) must precede B.start (node 2). *)
        Alcotest.(check bool) "A.end -> B.start" true
          (Graphs.Digraph.has_edge g ~src:1 ~dst:2);
        Alcotest.(check bool) "self edge A" true
          (Graphs.Digraph.has_edge g ~src:0 ~dst:1));
    Alcotest.test_case "graph is acyclic" `Quick (fun () ->
        List.iter
          (fun inst ->
            Alcotest.(check bool) "acyclic" true
              (Graphs.Paths.is_acyclic (Tvnep.Depgraph.graph inst)))
          [ ordered_instance (); free_instance () ]);
    Alcotest.test_case "no dependency edges without forced order" `Quick
      (fun () ->
        let g = Tvnep.Depgraph.graph ~self_edges:false (free_instance ()) in
        Alcotest.(check int) "edgeless" 0 (Graphs.Digraph.num_edges g));
  ]

let range_tests =
  [
    Alcotest.test_case "trivial ranges" `Quick (fun () ->
        let r = Tvnep.Depgraph.trivial_ranges (free_instance ()) in
        Alcotest.(check int) "start lo" 0 r.Tvnep.Depgraph.start_lo.(0);
        Alcotest.(check int) "start hi" 1 r.Tvnep.Depgraph.start_hi.(0);
        Alcotest.(check int) "end lo" 1 r.Tvnep.Depgraph.end_lo.(0);
        Alcotest.(check int) "end hi" 2 r.Tvnep.Depgraph.end_hi.(0));
    Alcotest.test_case "forced order pins the ranges" `Quick (fun () ->
        let r = Tvnep.Depgraph.csigma_event_ranges (ordered_instance ()) in
        (* A must start on e0 and end on e1; B starts on e1, ends on e2. *)
        Alcotest.(check int) "A start" 0 r.Tvnep.Depgraph.start_hi.(0);
        Alcotest.(check int) "A end hi" 1 r.Tvnep.Depgraph.end_hi.(0);
        Alcotest.(check int) "B start lo" 1 r.Tvnep.Depgraph.start_lo.(1);
        Alcotest.(check int) "B end lo" 2 r.Tvnep.Depgraph.end_lo.(1));
    Alcotest.test_case "free requests keep full ranges" `Quick (fun () ->
        let r = Tvnep.Depgraph.csigma_event_ranges (free_instance ()) in
        Alcotest.(check int) "start lo" 0 r.Tvnep.Depgraph.start_lo.(1);
        Alcotest.(check int) "start hi" 1 r.Tvnep.Depgraph.start_hi.(1);
        Alcotest.(check int) "end lo" 1 r.Tvnep.Depgraph.end_lo.(1);
        Alcotest.(check int) "end hi" 2 r.Tvnep.Depgraph.end_hi.(1));
    Alcotest.test_case "symmetry example of Section IV-D" `Quick (fun () ->
        (* k requests of duration slightly above half the window: all must
           start before any ends; starts fill the first k events, every
           end can only map to the final event. *)
        let k = 4 in
        let reqs =
          List.init k (fun i ->
              star_request
                ~name:(Printf.sprintf "S%d" i)
                ~duration:(1.0 +. (1.0 /. Float.pow 2.0 (float_of_int (i + 1))))
                ~start_min:0.0 ~end_max:2.0)
        in
        let inst = make_instance reqs 2.0 in
        let r = Tvnep.Depgraph.csigma_event_ranges inst in
        for i = 0 to k - 1 do
          Alcotest.(check int) "end pinned to last event" k
            r.Tvnep.Depgraph.end_lo.(i);
          Alcotest.(check int) "end hi" k r.Tvnep.Depgraph.end_hi.(i)
        done);
  ]

let cut_tests =
  [
    Alcotest.test_case "pairwise cuts for the forced order" `Quick (fun () ->
        let cuts = Tvnep.Depgraph.pairwise_cuts (ordered_instance ()) in
        (* A.start before B.start at weighted distance >= 1 must appear. *)
        let found =
          List.exists
            (fun { Tvnep.Depgraph.before; after; min_gap } ->
              before = { Tvnep.Depgraph.req = 0; kind = Tvnep.Depgraph.Start }
              && after = { Tvnep.Depgraph.req = 1; kind = Tvnep.Depgraph.Start }
              && min_gap >= 1)
            cuts
        in
        Alcotest.(check bool) "A.start before B.start" true found);
    Alcotest.test_case "no pairwise cuts between free requests" `Quick
      (fun () ->
        let cuts = Tvnep.Depgraph.pairwise_cuts (free_instance ()) in
        let cross =
          List.filter
            (fun { Tvnep.Depgraph.before; after; _ } ->
              before.Tvnep.Depgraph.req <> after.Tvnep.Depgraph.req)
            cuts
        in
        Alcotest.(check int) "only self cuts" 0 (List.length cross));
  ]

(* Key soundness property: adding cuts never changes the cΣ optimum. *)
let cut_soundness =
  [
    Seeded.to_alcotest ~seed:7101
      (QCheck2.Test.make ~name:"dependency cuts preserve the optimum" ~count:8
         QCheck2.Gen.(int_bound 10_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 21)) in
           let p =
             { Tvnep.Scenario.scaled with
               num_requests = 3;
               grid_rows = 2;
               grid_cols = 2;
               flexibility = Workload.Rng.float_range rng 0.0 2.0 }
           in
           let inst = Tvnep.Scenario.generate rng p in
           let solve ~use_cuts ~pairwise_cuts =
             let opts =
               Tvnep.Solver.Options.make ~use_cuts ~pairwise_cuts
                 ~mip:{ Mip.Branch_bound.default_params with time_limit = 60.0 }
                 ()
             in
             Tvnep.Solver.run inst opts
           in
           let with_cuts = solve ~use_cuts:true ~pairwise_cuts:true in
           let without = solve ~use_cuts:false ~pairwise_cuts:false in
           match (with_cuts.Tvnep.Solver.objective, without.Tvnep.Solver.objective) with
           | Some a, Some b -> Float.abs (a -. b) < 1e-5 *. Float.max 1.0 (Float.abs a)
           | None, None -> true
           | _ -> false));
  ]

let suite =
  [
    ("tvnep.depgraph", graph_tests @ range_tests @ cut_tests);
    ("tvnep.depgraph.soundness", cut_soundness);
  ]
