(* Greedy cΣ_A^G: validity, dominance by the exact optimum, exactness on
   easy instances, and the earliest-start behaviour of objective (21). *)

let quick_opts time_limit =
  Tvnep.Solver.Options.make
    ~mip:{ Mip.Branch_bound.default_params with time_limit } ()

let scenario ?(k = 3) ?(flex = 1.0) seed =
  let rng = Workload.Rng.create seed in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = k; flexibility = flex }

let unit_tests =
  [
    Alcotest.test_case "requires fixed mappings" `Quick (fun () ->
        let g = Graphs.Generators.grid ~rows:1 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:1.0 ~link_cap:1.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let r =
          Tvnep.Request.make ~name:"r" ~graph:rg ~node_demand:[| 0.5; 0.5 |]
            ~link_demand:[| 0.5 |] ~duration:1.0 ~start_min:0.0 ~end_max:1.0
        in
        let inst =
          Tvnep.Instance.make ~substrate ~requests:[| r |] ~horizon:1.0 ()
        in
        Alcotest.check_raises "raise"
          (Invalid_argument "Greedy.run: fixed node mappings required")
          (fun () -> ignore (Tvnep.Greedy.run inst)));
    Alcotest.test_case "a repeated pre-placement is rejected" `Quick (fun () ->
        let inst = scenario ~k:3 1L in
        let start = (Tvnep.Instance.request inst 0).Tvnep.Request.start_min in
        Alcotest.check_raises "raise"
          (Invalid_argument "Greedy.run: request preplaced twice") (fun () ->
            ignore
              (Tvnep.Greedy.run ~preplaced:[ (0, start); (0, start) ] inst)));
    Alcotest.test_case "accepts everything on an uncontended instance" `Quick
      (fun () ->
        let g = Graphs.Generators.grid ~rows:2 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:100.0 ~link_cap:100.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let mk name start =
          Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 1.0; 1.0 |]
            ~link_demand:[| 1.0 |] ~duration:1.0 ~start_min:start
            ~end_max:(start +. 2.0)
        in
        let inst =
          Tvnep.Instance.make
            ~node_mappings:[| [| 0; 1 |]; [| 2; 3 |]; [| 0; 2 |] |]
            ~substrate
            ~requests:[| mk "a" 0.0; mk "b" 0.3; mk "c" 0.6 |]
            ~horizon:3.0 ()
        in
        let sol, stats = Tvnep.Greedy.run inst in
        Alcotest.(check int) "all accepted" 3 (Tvnep.Solution.num_accepted sol);
        Alcotest.(check bool) "valid" true (Tvnep.Validator.is_feasible inst sol);
        (* objective (21): as early as possible -> each at its window open *)
        Array.iteri
          (fun i (a : Tvnep.Solution.assignment) ->
            Alcotest.(check (float 1e-6)) "earliest start"
              (Tvnep.Instance.request inst i).Tvnep.Request.start_min
              a.Tvnep.Solution.t_start)
          sol.Tvnep.Solution.assignments;
        Alcotest.(check bool) "one LP per request" true (stats.Tvnep.Greedy.lp_solves >= 3));
    Alcotest.test_case "exploits flexibility to fit a second request" `Quick
      (fun () ->
        (* Link bottleneck: requests must serialize; flexibility allows it. *)
        let g = Graphs.Digraph.create 2 in
        ignore (Graphs.Digraph.add_edge g ~src:0 ~dst:1);
        let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:1.0 in
        let rg = Graphs.Generators.star ~leaves:1 ~orientation:Graphs.Generators.From_center in
        let mk name flex =
          Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.1; 0.1 |]
            ~link_demand:[| 0.9 |] ~duration:1.0 ~start_min:0.0
            ~end_max:(1.0 +. flex)
        in
        let mappings = [| [| 0; 1 |]; [| 0; 1 |] |] in
        let tight =
          Tvnep.Instance.make ~node_mappings:mappings ~substrate
            ~requests:[| mk "a" 0.0; mk "b" 0.0 |]
            ~horizon:4.0 ()
        in
        let sol_tight, _ = Tvnep.Greedy.run tight in
        Alcotest.(check int) "no flexibility: one fits" 1
          (Tvnep.Solution.num_accepted sol_tight);
        let flexible =
          Tvnep.Instance.make ~node_mappings:mappings ~substrate
            ~requests:[| mk "a" 1.0; mk "b" 1.0 |]
            ~horizon:4.0 ()
        in
        let sol_flex, _ = Tvnep.Greedy.run flexible in
        Alcotest.(check int) "flexibility: both fit" 2
          (Tvnep.Solution.num_accepted sol_flex);
        Alcotest.(check bool) "valid" true
          (Tvnep.Validator.is_feasible flexible sol_flex));
  ]

(* The feasibility-LP assembly [Greedy] used before it built the
   standard form directly, written as [Lp.Model] term rows: every row and
   the objective go through [Lp.Model] and [Lp.Std_form.of_model].  The
   differential tests below hold [Greedy.flow_lp] to it bit for bit. *)
module Reference = struct
  open Tvnep

  let overlaps s1 e1 s2 e2 = s1 < e2 -. 1e-12 && s2 < e1 -. 1e-12

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

  let flow_lp inst participants =
    let sub = inst.Instance.substrate in
    let sgraph = Substrate.graph sub in
    let n_sub = Substrate.num_nodes sub in
    let n_slinks = Substrate.num_links sub in
    let intervals = List.map (fun (_, s, e) -> (s, e)) participants in
    let states = states_of intervals in
    let active_sets =
      List.map
        (fun (lo, hi) ->
          List.filter_map
            (fun (req, s, e) -> if overlaps s e lo hi then Some req else None)
            participants)
        states
    in
    let model = Lp.Model.create () in
    let flows = Hashtbl.create 16 in
    List.iter
      (fun (req, _, _) ->
        let r = Instance.request inst req in
        let mapping =
          match Instance.node_mapping inst req with
          | Some m -> m
          | None -> assert false
        in
        let x_e =
          Array.init (Request.num_vlinks r) (fun _ ->
              Array.init n_slinks (fun _ ->
                  Lp.Model.add_var model ~lb:0.0 ~ub:1.0))
        in
        Hashtbl.replace flows req x_e;
        List.iter
          (fun (lv : Graphs.Digraph.edge) ->
            for s = 0 to n_sub - 1 do
              let sum_over c edges =
                List.map
                  (fun (e : Graphs.Digraph.edge) -> (x_e.(lv.id).(e.id), c))
                  edges
              in
              let balance =
                sum_over 1.0 (Graphs.Digraph.out_edges sgraph s)
                @ sum_over (-1.0) (Graphs.Digraph.in_edges sgraph s)
              in
              let rhs =
                (if mapping.(lv.src) = s then 1.0 else 0.0)
                -. (if mapping.(lv.dst) = s then 1.0 else 0.0)
              in
              Lp.Model.add_eq model balance rhs
            done)
          (Graphs.Digraph.edges r.Request.graph))
      participants;
    List.iter
      (fun active ->
        for ls = 0 to n_slinks - 1 do
          let load =
            List.concat_map
              (fun req ->
                let r = Instance.request inst req in
                let x_e = Hashtbl.find flows req in
                List.init (Request.num_vlinks r) (fun lv ->
                    (x_e.(lv).(ls), r.Request.link_demand.(lv))))
              active
            |> List.filter (fun (_, d) -> not (Lina.Tol.is_zero d))
          in
          if load <> [] then
            Lp.Model.add_le model load (Substrate.link_cap sub ls)
        done)
      active_sets;
    let total =
      Hashtbl.fold
        (fun _ x_e acc ->
          Array.fold_left
            (fun acc row ->
              Array.fold_left (fun acc v -> (v, 1.0) :: acc) acc row)
            acc x_e)
        flows []
    in
    Lp.Model.set_objective model Lp.Model.Minimize total;
    Lp.Std_form.of_model model
end

(* [Greedy]'s matrix as it was assembled before it wrote CSC arrays in
   final order: the same entries, kept verbatim, replayed into the
   [Csc_builder] oracle, which sums and drops what cancels (a substrate
   self-loop's +1 and -1) and sorts every column by row. *)
module Builder_reference = struct
  open Tvnep

  let matrix inst participants =
    let sub = inst.Instance.substrate in
    let n_sub = Substrate.num_nodes sub in
    let n_slinks = Substrate.num_links sub in
    let slinks = Graphs.Digraph.edges (Substrate.graph sub) in
    let first = Array.make (Instance.num_requests inst) (-1) in
    let n_struct, n_conserve =
      List.fold_left
        (fun (col, row) (req, _, _) ->
          let n_vlinks = Request.num_vlinks (Instance.request inst req) in
          first.(req) <- col;
          (col + (n_vlinks * n_slinks), row + (n_vlinks * n_sub)))
        (0, 0) participants
    in
    let active_sets =
      List.map
        (fun (lo, hi) ->
          List.filter_map
            (fun (req, s, e) ->
              if Reference.overlaps s e lo hi then Some req else None)
            participants)
        (Reference.states_of (List.map (fun (_, s, e) -> (s, e)) participants))
    in
    let loaded active =
      List.exists
        (fun req ->
          Array.exists
            (fun d -> not (Lina.Tol.is_zero d))
            (Instance.request inst req).Request.link_demand)
        active
    in
    let loaded_sets = List.filter loaded active_sets in
    let n_rows = n_conserve + (List.length loaded_sets * n_slinks) in
    let b = Csc_builder.create ~rows:n_rows ~cols:(n_struct + n_rows) in
    let row = ref 0 in
    List.iter
      (fun (req, _, _) ->
        List.iter
          (fun (lv : Graphs.Digraph.edge) ->
            let base = first.(req) + (lv.id * n_slinks) in
            List.iter
              (fun (e : Graphs.Digraph.edge) ->
                Csc_builder.add b ~row:(!row + e.src) ~col:(base + e.id) 1.0;
                Csc_builder.add b ~row:(!row + e.dst) ~col:(base + e.id) (-1.0))
              slinks;
            row := !row + n_sub)
          (Graphs.Digraph.edges (Instance.request inst req).Request.graph))
      participants;
    List.iter
      (fun active ->
        for ls = 0 to n_slinks - 1 do
          List.iter
            (fun req ->
              Array.iteri
                (fun lv d ->
                  if not (Lina.Tol.is_zero d) then
                    Csc_builder.add b ~row:!row
                      ~col:(first.(req) + (lv * n_slinks) + ls)
                      d)
                (Instance.request inst req).Request.link_demand)
            active;
          incr row
        done)
      loaded_sets;
    for i = 0 to n_rows - 1 do
      Csc_builder.add b ~row:i ~col:(n_struct + i) (-1.0)
    done;
    Csc_builder.finish b
end

let bits a = Array.map Int64.bits_of_float a

let check_flow_lp label inst participants =
  let want = Reference.flow_lp inst participants in
  let got = Tvnep.Greedy.flow_lp inst participants in
  let ints what f = Alcotest.(check (array int)) (label ^ " " ^ what) (f want) (f got) in
  let floats what f =
    Alcotest.(check (array int64)) (label ^ " " ^ what) (bits (f want)) (bits (f got))
  in
  Alcotest.(check int) (label ^ " n_struct") want.Lp.Std_form.n_struct
    got.Lp.Std_form.n_struct;
  Alcotest.(check int) (label ^ " n_rows") want.Lp.Std_form.n_rows
    got.Lp.Std_form.n_rows;
  ints "col_ptr" (fun sf -> sf.Lp.Std_form.a.Lina.Csc.col_ptr);
  ints "row_idx" (fun sf -> sf.Lp.Std_form.a.Lina.Csc.row_idx);
  floats "value" (fun sf -> sf.Lp.Std_form.a.Lina.Csc.value);
  let built = Builder_reference.matrix inst participants in
  let csc what f =
    Alcotest.(check (array int))
      (label ^ " Builder " ^ what)
      (f built) (f got.Lp.Std_form.a)
  in
  csc "col_ptr" (fun a -> a.Lina.Csc.col_ptr);
  csc "row_idx" (fun a -> a.Lina.Csc.row_idx);
  Alcotest.(check (array int64)) (label ^ " Builder value")
    (bits built.Lina.Csc.value) (bits got.Lp.Std_form.a.Lina.Csc.value);
  Alcotest.(check int) (label ^ " Builder rows") built.Lina.Csc.rows
    got.Lp.Std_form.a.Lina.Csc.rows;
  floats "lb" (fun sf -> sf.Lp.Std_form.lb);
  floats "ub" (fun sf -> sf.Lp.Std_form.ub);
  floats "cost" (fun sf -> sf.Lp.Std_form.cost);
  Alcotest.(check (array bool)) (label ^ " integer") want.Lp.Std_form.integer
    got.Lp.Std_form.integer;
  Alcotest.(check int64) (label ^ " obj_const")
    (Int64.bits_of_float want.Lp.Std_form.obj_const)
    (Int64.bits_of_float got.Lp.Std_form.obj_const);
  Alcotest.(check int64) (label ^ " obj_factor")
    (Int64.bits_of_float want.Lp.Std_form.obj_factor)
    (Int64.bits_of_float got.Lp.Std_form.obj_factor)

(* Three 2-link stars on a 2x3 grid: [a] has one zero-demand link, [z]
   demands nothing (and maps both links' ends onto one host), [b] loads
   both links. *)
let zero_demand_instance () =
  let g = Graphs.Generators.grid ~rows:2 ~cols:3 in
  let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:2.0 in
  let rg = Graphs.Generators.star ~leaves:2 ~orientation:Graphs.Generators.From_center in
  let mk name link_demand =
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.5; 0.5; 0.5 |]
      ~link_demand ~duration:1.0 ~start_min:0.0 ~end_max:4.0
  in
  Tvnep.Instance.make
    ~node_mappings:[| [| 0; 1; 2 |]; [| 3; 4; 4 |]; [| 5; 0; 3 |] |]
    ~substrate
    ~requests:[| mk "a" [| 1.5; 0.0 |]; mk "z" [| 0.0; 0.0 |]; mk "b" [| 0.7; 1.2 |] |]
    ~horizon:4.0 ()

(* A triangle with two substrate self-loops (links 1 and 4) under three
   2-link stars: [a]'s second link demands nothing, [b] maps both ends of
   its first link onto one host. *)
let self_loop_instance () =
  let g = Graphs.Digraph.create 3 in
  List.iter
    (fun (src, dst) -> ignore (Graphs.Digraph.add_edge g ~src ~dst))
    [ (0, 1); (1, 1); (1, 2); (2, 0); (2, 2) ];
  let substrate = Tvnep.Substrate.uniform g ~node_cap:10.0 ~link_cap:2.0 in
  let rg =
    Graphs.Generators.star ~leaves:2
      ~orientation:Graphs.Generators.From_center
  in
  let mk name link_demand =
    Tvnep.Request.make ~name ~graph:rg ~node_demand:[| 0.5; 0.5; 0.5 |]
      ~link_demand ~duration:1.0 ~start_min:0.0 ~end_max:4.0
  in
  Tvnep.Instance.make
    ~node_mappings:[| [| 0; 1; 2 |]; [| 1; 1; 2 |]; [| 2; 0; 1 |] |]
    ~substrate
    ~requests:
      [| mk "a" [| 1.0; 0.0 |]; mk "b" [| 0.5; 0.5 |]; mk "c" [| 0.3; 0.2 |] |]
    ~horizon:4.0 ()

(* [inst] with a self-loop appended at every third substrate node. *)
let with_self_loops inst =
  let sub = inst.Tvnep.Instance.substrate in
  let g = Tvnep.Substrate.graph sub in
  let n = Graphs.Digraph.num_nodes g in
  let g' = Graphs.Digraph.create n in
  List.iter
    (fun (e : Graphs.Digraph.edge) ->
      ignore (Graphs.Digraph.add_edge g' ~src:e.src ~dst:e.dst))
    (Graphs.Digraph.edges g);
  for v = 0 to n - 1 do
    if v mod 3 = 0 then ignore (Graphs.Digraph.add_edge g' ~src:v ~dst:v)
  done;
  let m = Graphs.Digraph.num_edges g in
  let substrate =
    Tvnep.Substrate.make g'
      ~node_cap:(Array.init n (Tvnep.Substrate.node_cap sub))
      ~link_cap:
        (Array.init (Graphs.Digraph.num_edges g') (fun e ->
             if e < m then Tvnep.Substrate.link_cap sub e else 1.0))
  in
  Tvnep.Instance.make ?node_mappings:inst.Tvnep.Instance.node_mappings
    ~substrate ~requests:inst.Tvnep.Instance.requests
    ~horizon:inst.Tvnep.Instance.horizon ()

(* Every request once, in a seeded order, each at a seeded start inside its
   window; the prefixes of this list are probe-shaped participant sets. *)
let seeded_participants inst seed =
  let rng = Workload.Rng.create seed in
  let order = Array.init (Tvnep.Instance.num_requests inst) (fun i -> i) in
  Workload.Rng.shuffle rng order;
  List.map
    (fun req ->
      let r = Tvnep.Instance.request inst req in
      let lo = r.Tvnep.Request.start_min and hi = Tvnep.Request.latest_start r in
      let s = if hi > lo then Workload.Rng.float_range rng lo hi else lo in
      (req, s, s +. r.Tvnep.Request.duration))
    (Array.to_list order)

let rec prefixes = function
  | [] -> []
  | x :: rest -> [ x ] :: List.map (fun p -> x :: p) (prefixes rest)

let flow_lp_tests =
  [
    Alcotest.test_case "hand-built participant sets" `Quick (fun () ->
        let inst = zero_demand_instance () in
        List.iter
          (fun (label, participants) -> check_flow_lp label inst participants)
          [
            ("single participant", [ (0, 0.0, 1.0) ]);
            ("single zero-demand participant", [ (1, 0.0, 1.0) ]);
            ("state with no active request", [ (0, 0.0, 1.0); (2, 2.0, 3.0) ]);
            ("zero-demand state", [ (1, 0.0, 1.0); (0, 0.5, 1.5) ]);
            ( "several participants",
              [ (2, 0.0, 1.0); (0, 0.5, 1.5); (1, 0.2, 1.2) ] );
            ( "several participants, reversed",
              [ (1, 0.2, 1.2); (0, 0.5, 1.5); (2, 0.0, 1.0) ] );
          ]);
    Alcotest.test_case "self-loop substrate links" `Quick (fun () ->
        (* [a] spans three loaded states; the loops' flow columns carry
           no conservation entry, only capacity entries. *)
        let inst = self_loop_instance () in
        List.iter
          (fun (label, participants) -> check_flow_lp label inst participants)
          [
            ("one participant", [ (1, 0.0, 1.0) ]);
            ( "several loaded states",
              [ (0, 0.0, 3.0); (1, 0.0, 1.0); (2, 2.0, 3.0) ] );
            ( "overlapping, reversed",
              [ (2, 1.5, 2.5); (1, 0.5, 1.5); (0, 0.0, 3.0) ] );
          ];
        List.iter
          (fun seed ->
            let inst = with_self_loops (scenario ~k:5 ~flex:2.0 seed) in
            List.iter
              (fun participants ->
                check_flow_lp
                  (Printf.sprintf "looped seed %Ld, %d participants" seed
                     (List.length participants))
                  inst participants)
              (prefixes (seeded_participants inst (Int64.add seed 50L))))
          [ 5L; 23L ]);
    Alcotest.test_case "seeded scaled scenarios" `Quick (fun () ->
        List.iter
          (fun seed ->
            let inst = scenario ~k:6 ~flex:2.0 seed in
            List.iter
              (fun participants ->
                check_flow_lp
                  (Printf.sprintf "seed %Ld, %d participants" seed
                     (List.length participants))
                  inst participants)
              (prefixes (seeded_participants inst (Int64.add seed 100L))))
          [ 3L; 17L; 41L ]);
    Alcotest.test_case "preplaced-only sets" `Quick (fun () ->
        (* The participant list [Greedy.run ~preplaced] solves before its
           scan: every pre-placement in caller order, none a candidate. *)
        let inst = scenario ~k:5 ~flex:1.0 29L in
        let preplaced =
          List.map
            (fun req ->
              (req, (Tvnep.Instance.request inst req).Tvnep.Request.start_min))
            [ 4; 1; 3 ]
        in
        check_flow_lp "preplaced" inst
          (List.map
             (fun (req, s) ->
               (req, s, s +. (Tvnep.Instance.request inst req).Tvnep.Request.duration))
             preplaced));
    Alcotest.test_case "paper-size 4x5 grid" `Quick (fun () ->
        let rng = Workload.Rng.create 4242L in
        let inst =
          Tvnep.Scenario.generate rng
            { Tvnep.Scenario.paper with num_requests = 8; flexibility = 1.0 }
        in
        check_flow_lp "paper grid" inst (seeded_participants inst 7L));
  ]

let properties =
  [
    Seeded.to_alcotest ~seed:4101
      (QCheck2.Test.make ~name:"greedy solutions are always feasible" ~count:15
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let inst = scenario ~k:5 ~flex:2.0 (Int64.of_int (seed + 7)) in
           let sol, _ = Tvnep.Greedy.run inst in
           Tvnep.Validator.is_feasible inst sol));
    Seeded.to_alcotest ~seed:4102
      (QCheck2.Test.make ~name:"greedy never beats the exact optimum" ~count:6
         QCheck2.Gen.(int_bound 10_000)
         (fun seed ->
           let inst = scenario ~k:3 ~flex:1.5 (Int64.of_int (seed + 13)) in
           let sol, _ = Tvnep.Greedy.run inst in
           let exact = Tvnep.Solver.run inst (quick_opts 90.0) in
           match exact.Tvnep.Solver.objective with
           | Some opt when exact.Tvnep.Solver.status = Tvnep.Solver.Optimal ->
             sol.Tvnep.Solution.objective <= opt +. 1e-5
           | _ -> true));
    Seeded.to_alcotest ~seed:4103
      (QCheck2.Test.make
         ~name:"greedy objective matches recomputed revenue" ~count:15
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let inst = scenario ~k:4 ~flex:1.0 (Int64.of_int (seed + 19)) in
           let sol, _ = Tvnep.Greedy.run inst in
           Float.abs
             (sol.Tvnep.Solution.objective
             -. Tvnep.Solution.access_control_value inst sol)
           < 1e-9));
    Seeded.to_alcotest ~seed:4104
      (QCheck2.Test.make
         ~name:"rejected requests still carry window-respecting times"
         ~count:15
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           (* Definition 2.1 fixes start/end times for every request,
              accepted or not. *)
           let inst = scenario ~k:5 ~flex:0.5 (Int64.of_int (seed + 29)) in
           let sol, _ = Tvnep.Greedy.run inst in
           Array.for_all
             (fun i ->
               let a = sol.Tvnep.Solution.assignments.(i) in
               let r = Tvnep.Instance.request inst i in
               a.Tvnep.Solution.t_start >= r.Tvnep.Request.start_min -. 1e-9
               && a.Tvnep.Solution.t_end <= r.Tvnep.Request.end_max +. 1e-9
               && Float.abs
                    (a.Tvnep.Solution.t_end -. a.Tvnep.Solution.t_start
                   -. r.Tvnep.Request.duration)
                  < 1e-9)
             (Array.init (Tvnep.Instance.num_requests inst) (fun i -> i))));
  ]

let suite =
  [
    ("tvnep.greedy", unit_tests @ properties);
    ("tvnep.greedy.flow_lp", flow_lp_tests);
  ]
