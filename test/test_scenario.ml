(* Workload generator and instance file format. *)

let scenario_tests =
  [
    Alcotest.test_case "paper parameters produce the paper substrate" `Quick
      (fun () ->
        let rng = Workload.Rng.create 1L in
        let inst = Tvnep.Scenario.generate rng Tvnep.Scenario.paper in
        let sub = inst.Tvnep.Instance.substrate in
        Alcotest.(check int) "20 nodes" 20 (Tvnep.Substrate.num_nodes sub);
        Alcotest.(check int) "62 directed links" 62 (Tvnep.Substrate.num_links sub);
        Alcotest.(check (float 1e-9)) "node cap" 3.5 (Tvnep.Substrate.node_cap sub 0);
        Alcotest.(check (float 1e-9)) "link cap" 5.0 (Tvnep.Substrate.link_cap sub 0);
        Alcotest.(check int) "20 requests" 20 (Tvnep.Instance.num_requests inst);
        Alcotest.(check bool) "fixed mappings" true
          (Tvnep.Instance.has_fixed_mappings inst);
        (* every request is a 5-node star with demands in [1,2] *)
        Array.iter
          (fun (r : Tvnep.Request.t) ->
            Alcotest.(check int) "5 vnodes" 5 (Tvnep.Request.num_vnodes r);
            Alcotest.(check int) "4 vlinks" 4 (Tvnep.Request.num_vlinks r);
            Array.iter
              (fun d ->
                Alcotest.(check bool) "demand range" true (d >= 1.0 && d < 2.0))
              r.Tvnep.Request.node_demand)
          inst.Tvnep.Instance.requests);
    Alcotest.test_case "deterministic per seed" `Quick (fun () ->
        let gen () =
          Tvnep.Scenario.generate (Workload.Rng.create 9L) Tvnep.Scenario.scaled
        in
        let a = gen () and b = gen () in
        Alcotest.(check string) "identical serialization"
          (Tvnep.Instance_io.to_string a)
          (Tvnep.Instance_io.to_string b));
    Alcotest.test_case "flexibility widens only the windows" `Quick (fun () ->
        let insts =
          Tvnep.Scenario.sweep ~seed:5L Tvnep.Scenario.scaled
            ~flexibilities:[ 0.0; 2.0 ]
        in
        match insts with
        | [ tight; loose ] ->
          Array.iteri
            (fun i (r0 : Tvnep.Request.t) ->
              let r2 = Tvnep.Instance.request loose i in
              Alcotest.(check (float 1e-9)) "same arrival"
                r0.Tvnep.Request.start_min r2.Tvnep.Request.start_min;
              Alcotest.(check (float 1e-9)) "same duration"
                r0.Tvnep.Request.duration r2.Tvnep.Request.duration;
              Alcotest.(check (float 1e-9)) "widened window" 2.0
                (Tvnep.Request.flexibility r2 -. Tvnep.Request.flexibility r0);
              (* demands also identical *)
              Alcotest.(check bool) "same demands" true
                (r0.Tvnep.Request.node_demand = r2.Tvnep.Request.node_demand))
            tight.Tvnep.Instance.requests
        | _ -> Alcotest.fail "two instances");
    Alcotest.test_case "durations respect the floor" `Quick (fun () ->
        let rng = Workload.Rng.create 31L in
        let p = { Tvnep.Scenario.scaled with min_duration = 1.0; num_requests = 30 } in
        let inst = Tvnep.Scenario.generate rng p in
        Array.iter
          (fun (r : Tvnep.Request.t) ->
            Alcotest.(check bool) "floor" true (r.Tvnep.Request.duration >= 1.0))
          inst.Tvnep.Instance.requests);
  ]

let io_tests =
  [
    Alcotest.test_case "roundtrip with fixed mappings" `Quick (fun () ->
        let rng = Workload.Rng.create 3L in
        let inst = Tvnep.Scenario.generate rng Tvnep.Scenario.scaled in
        let text = Tvnep.Instance_io.to_string inst in
        let back = Tvnep.Instance_io.of_string text in
        Alcotest.(check string) "fixpoint" text (Tvnep.Instance_io.to_string back));
    Alcotest.test_case "roundtrip without mappings" `Quick (fun () ->
        let g = Graphs.Generators.grid ~rows:2 ~cols:2 in
        let substrate = Tvnep.Substrate.uniform g ~node_cap:2.0 ~link_cap:3.0 in
        let rg = Graphs.Generators.star ~leaves:2 ~orientation:Graphs.Generators.To_center in
        let r =
          Tvnep.Request.make ~name:"free" ~graph:rg
            ~node_demand:[| 1.0; 1.5; 1.25 |] ~link_demand:[| 0.5; 0.75 |]
            ~duration:2.0 ~start_min:1.0 ~end_max:4.0
        in
        let inst =
          Tvnep.Instance.make ~substrate ~requests:[| r |] ~horizon:5.0 ()
        in
        let back = Tvnep.Instance_io.of_string (Tvnep.Instance_io.to_string inst) in
        Alcotest.(check bool) "no mappings" false
          (Tvnep.Instance.has_fixed_mappings back);
        Alcotest.(check string) "fixpoint"
          (Tvnep.Instance_io.to_string inst)
          (Tvnep.Instance_io.to_string back));
    Alcotest.test_case "comments and blank lines ignored" `Quick (fun () ->
        let text =
          "# a comment\n\ntvnep 1\nhorizon 2.0\nsubstrate-nodes 2\n\
           node-cap 0 1.0\nnode-cap 1 1.0   # inline\nlink 0 1 1.0\n\
           request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5\n\
           vnode 1 0.5\n  vlink 0 1 0.25\nend\n"
        in
        let inst = Tvnep.Instance_io.of_string text in
        Alcotest.(check int) "one request" 1 (Tvnep.Instance.num_requests inst));
    Alcotest.test_case "parse errors carry line numbers" `Quick (fun () ->
        (* Non-finite numbers are malformed too: the range checks of the
           instance constructors compare with [<], which nan passes. *)
        let file ~horizon ~cap ~duration =
          Printf.sprintf
            "tvnep 1\nhorizon %s\nsubstrate-nodes 1\nnode-cap 0 %s\n\
             request r duration %s window 0.0 2.0\n  vnode 0 0.5\nend\n"
            horizon cap duration
        in
        List.iter
          (fun (line, bad) ->
            match Tvnep.Instance_io.of_string bad with
            | exception Tvnep.Instance_io.Parse_error (n, _) when n = line -> ()
            | exception Tvnep.Instance_io.Parse_error (n, m) ->
              Alcotest.failf "wrong line %d (expected %d): %s" n line m
            | _ -> Alcotest.failf "expected parse error: %S" bad)
          [
            (2, "tvnep 1\nhorizon oops\n");
            (2, file ~horizon:"nan" ~cap:"1.0" ~duration:"1.0");
            (2, file ~horizon:"inf" ~cap:"1.0" ~duration:"1.0");
            (4, file ~horizon:"2.0" ~cap:"nan" ~duration:"1.0");
            (4, file ~horizon:"2.0" ~cap:"inf" ~duration:"1.0");
            (5, file ~horizon:"2.0" ~cap:"1.0" ~duration:"nan");
            (* Checks made once the whole file is read name the line of
               the directive they reject too. *)
            (4, file ~horizon:"2.0" ~cap:"-1.0" ~duration:"1.0");
            (2, file ~horizon:"0.0" ~cap:"1.0" ~duration:"1.0");
            (5, file ~horizon:"2.0" ~cap:"1.0" ~duration:"3.0");
            (4, "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 5 1.0\n");
            ( 5,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
               node-cap 0 2.0\n" );
            ( 5,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 2\nnode-cap 0 1.0\n\
               link 0 1 -1.0\n" );
            ( 5,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 2\nnode-cap 0 1.0\n\
               link 0 2 1.0\n" );
            ( 6,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
               request r duration 1.0 window 0.0 2.0\n  vnode 1 0.5\nend\n" );
            ( 7,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
               request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5\n\
              \  vlink 0 0 0.25\nend\n" );
            ( 7,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
               request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5\n\
              \  vlink 0 1 0.25\nend\n" );
            ( 9,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 2\nnode-cap 0 1.0\n\
               node-cap 1 1.0\nlink 0 1 1.0\n\
               request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5 host 0\n\
              \  vnode 1 0.5\n  vlink 0 1 0.25\nend\n" );
            ( 6,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
               request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5 host 3\n\
               end\n" );
            ( 8,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
               request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5 host 0\n\
               end\nrequest s duration 1.0 window 0.0 2.0\n  vnode 0 0.5\n\
               end\n" );
            ( 5,
              "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
               request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5\n" );
          ]);
    Alcotest.test_case "unterminated request rejected" `Quick (fun () ->
        let bad =
          "tvnep 1\nhorizon 2.0\nsubstrate-nodes 1\nnode-cap 0 1.0\n\
           request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5\n"
        in
        (match Tvnep.Instance_io.of_string bad with
        | exception Tvnep.Instance_io.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error"));
    Alcotest.test_case "partial host mapping rejected" `Quick (fun () ->
        let bad =
          "tvnep 1\nhorizon 2.0\nsubstrate-nodes 2\nnode-cap 0 1.0\n\
           node-cap 1 1.0\nlink 0 1 1.0\n\
           request r duration 1.0 window 0.0 2.0\n  vnode 0 0.5 host 0\n\
           vnode 1 0.5\n  vlink 0 1 0.25\nend\n"
        in
        (match Tvnep.Instance_io.of_string bad with
        | exception Tvnep.Instance_io.Parse_error _ -> ()
        | _ -> Alcotest.fail "expected parse error"));
    Alcotest.test_case "save/load through a file" `Quick (fun () ->
        let rng = Workload.Rng.create 21L in
        let inst = Tvnep.Scenario.generate rng Tvnep.Scenario.scaled in
        let path = Filename.temp_file "tvnep" ".inst" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Tvnep.Instance_io.save path inst;
            let back = Tvnep.Instance_io.load path in
            Alcotest.(check string) "roundtrip"
              (Tvnep.Instance_io.to_string inst)
              (Tvnep.Instance_io.to_string back)));
  ]

let suite =
  [ ("tvnep.scenario", scenario_tests); ("tvnep.instance_io", io_tests) ]
