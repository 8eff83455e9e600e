(* Runtime.Span: nesting and exception balance, graft rebasing, export
   goldens, jobs-invariance of a profiled solve's exported span stream,
   and a profiled solve's counters equal to an unprofiled one's. *)

module Span = Runtime.Span
module Budget = Runtime.Budget

(* A budget whose "time" is exactly its tick count, so span stamps in
   these tests are the literal numbers we tick. *)
let manual_budget () = Budget.create ~deterministic:1.0 ()

let sig_list = Alcotest.(list (pair string (triple int int int)))

let to_sig spans =
  List.map (fun s -> (s.Span.name, (s.Span.depth, s.Span.t0, s.Span.t1))) spans

exception Boom

let unit_tests =
  [
    Alcotest.test_case "nesting, stamps and seq order" `Quick (fun () ->
        let b = manual_budget () in
        let r = Some (Span.create ()) in
        Span.with_ r b "outer" (fun () ->
            Budget.tick ~n:5 b;
            Span.with_ r b "inner" (fun () -> Budget.tick ~n:3 b);
            Budget.tick ~n:2 b);
        let spans = Span.spans (Option.get r) in
        Alcotest.(check sig_list)
          "spans"
          [ ("outer", (0, 0, 10)); ("inner", (1, 5, 8)) ]
          (to_sig spans);
        Alcotest.(check int) "total" 10 (Span.total_ticks spans);
        Alcotest.(check int) "balanced" 0 (Span.open_spans (Option.get r)));
    Alcotest.test_case "with_ closes the span on an exception" `Quick
      (fun () ->
        let b = manual_budget () in
        let r = Some (Span.create ()) in
        (try
           Span.with_ r b "outer" (fun () ->
               Budget.tick ~n:4 b;
               Span.with_ r b "inner" (fun () ->
                   Budget.tick ~n:1 b;
                   raise Boom))
         with Boom -> ());
        let rec_ = Option.get r in
        Alcotest.(check int) "balanced after raise" 0 (Span.open_spans rec_);
        Alcotest.(check sig_list)
          "both spans closed at the raise point"
          [ ("outer", (0, 0, 5)); ("inner", (1, 4, 5)) ]
          (to_sig (Span.spans rec_)));
    Alcotest.test_case "no recorder means no work" `Quick (fun () ->
        let b = manual_budget () in
        Alcotest.(check int) "with_ is transparent" 7
          (Span.with_ None b "x" (fun () ->
               Budget.tick ~n:2 b;
               7)));
    Alcotest.test_case "graft rebases child stamps and nests them" `Quick
      (fun () ->
        let parent_b = manual_budget () in
        let parent = Span.create () in
        Span.enter (Some parent) parent_b "solve";
        Budget.tick ~n:10 parent_b;
        (* A forked task: private clock starting at 10, child recorder
           rebased to the fork's tick origin. *)
        let fork = Budget.fork parent_b in
        let child = Span.create ~base:(Budget.ticks fork) () in
        Span.set_domain child 3;
        Span.with_ (Some child) fork "eval" (fun () -> Budget.tick ~n:4 fork);
        (* Merge: graft at the parent's pre-join tick count. *)
        Span.graft ~into:parent ~at:(Budget.ticks parent_b) child;
        Budget.join ~into:parent_b fork;
        Budget.tick ~n:1 parent_b;
        Span.exit (Some parent) parent_b;
        let spans = Span.spans parent in
        Alcotest.(check sig_list)
          "grafted timeline"
          [ ("solve", (0, 0, 15)); ("eval", (1, 10, 14)) ]
          (to_sig spans);
        Alcotest.(check (list (pair int int)))
          "domain attribution"
          [ (0, 11); (3, 4) ]
          (Span.domain_ticks spans));
    Alcotest.test_case "graft refuses an unbalanced child" `Quick (fun () ->
        let b = manual_budget () in
        let child = Span.create () in
        Span.enter (Some child) b "open";
        Alcotest.check_raises "raises"
          (Invalid_argument "Span.graft: child recorder has open spans")
          (fun () -> Span.graft ~into:(Span.create ()) ~at:0 child));
    Alcotest.test_case "leaf spans tile an enclosing span" `Quick (fun () ->
        let b = manual_budget () in
        let r = Some (Span.create ()) in
        Span.with_ r b "lp" (fun () ->
            Budget.tick ~n:9 b;
            let cur = Budget.ticks b in
            Span.leaf r ~name:"ftran" ~t0:(cur - 9) ~t1:(cur - 3);
            Span.leaf r ~name:"btran" ~t0:(cur - 3) ~t1:cur);
        let tree = Span.tree_of (Span.spans (Option.get r)) in
        Alcotest.(check int) "self = total" 9 (Span.sum_self tree);
        match tree with
        | [ lp ] ->
          Alcotest.(check int) "lp self" 0 lp.Span.self;
          Alcotest.(check (list (pair string int)))
            "children"
            [ ("ftran", 6); ("btran", 3) ]
            (List.map
               (fun (c : Span.tree) -> (c.Span.tree_name, c.Span.total))
               lp.Span.children)
        | _ -> Alcotest.fail "expected a single root");
    Alcotest.test_case "tree aggregates repeated phases" `Quick (fun () ->
        let b = manual_budget () in
        let r = Some (Span.create ()) in
        Span.with_ r b "root" (fun () ->
            for _ = 1 to 3 do
              Span.with_ r b "round" (fun () -> Budget.tick ~n:2 b)
            done;
            Budget.tick ~n:1 b);
        match Span.tree_of (Span.spans (Option.get r)) with
        | [ root ] -> (
          Alcotest.(check int) "root total" 7 root.Span.total;
          Alcotest.(check int) "root self" 1 root.Span.self;
          match root.Span.children with
          | [ round ] ->
            Alcotest.(check int) "round calls" 3 round.Span.calls;
            Alcotest.(check int) "round total" 6 round.Span.total
          | _ -> Alcotest.fail "expected one aggregated child")
        | _ -> Alcotest.fail "expected a single root");
  ]

let golden_spans () =
  let b = manual_budget () in
  let r = Some (Span.create ()) in
  Span.with_ r b "solve" (fun () ->
      Budget.tick ~n:2 b;
      Span.with_ r b "lp" (fun () -> Budget.tick ~n:3 b));
  Span.spans (Option.get r)

let export_tests =
  [
    Alcotest.test_case "JSONL golden" `Quick (fun () ->
        Alcotest.(check string)
          "bytes"
          "{\"schema\":\"tvnep-span/1\",\"schema_version\":1,\"rate\":1}\n\
           {\"name\":\"solve\",\"domain\":0,\"depth\":0,\"t0\":0,\"t1\":5,\
           \"ticks\":5}\n\
           {\"name\":\"lp\",\"domain\":0,\"depth\":1,\"t0\":2,\"t1\":5,\
           \"ticks\":3}\n"
          (Span.to_jsonl ~rate:1.0 (golden_spans ())));
    Alcotest.test_case "Chrome golden" `Quick (fun () ->
        let doc = Span.to_chrome ~rate:1.0 (golden_spans ()) in
        (* Structure, not bytes: parse back and probe the fields the
           trace viewer needs. *)
        let open Statsutil.Json in
        let events =
          Option.get (Option.bind (member "traceEvents" doc) to_list)
        in
        Alcotest.(check int) "two events" 2 (List.length events);
        let ev1 = List.nth events 1 in
        (match member "name" ev1 with
        | Some (Str s) -> Alcotest.(check string) "name" "lp" s
        | _ -> Alcotest.fail "missing name");
        (match member "ph" ev1 with
        | Some (Str s) -> Alcotest.(check string) "phase type" "X" s
        | _ -> Alcotest.fail "missing ph");
        (* rate 1.0: one tick = one microsecond *)
        Alcotest.(check (option (float 1e-9)))
          "ts" (Some 2e6)
          (Option.bind (member "ts" ev1) to_float);
        Alcotest.(check (option (float 1e-9)))
          "dur" (Some 3e6)
          (Option.bind (member "dur" ev1) to_float);
        match Option.bind (member "otherData" doc) (member "schema") with
        | Some (Str s) -> Alcotest.(check string) "schema" "tvnep-span/1" s
        | _ -> Alcotest.fail "missing otherData.schema");
    Alcotest.test_case "exports round-trip through the parser" `Quick
      (fun () ->
        let spans = golden_spans () in
        (match
           Statsutil.Json.of_string
             (Statsutil.Json.to_string (Span.to_chrome spans))
         with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail ("chrome: " ^ msg));
        String.split_on_char '\n' (Span.to_jsonl spans)
        |> List.iter (fun line ->
               if line <> "" then
                 match Statsutil.Json.of_string line with
                 | Ok _ -> ()
                 | Error msg -> Alcotest.fail ("jsonl: " ^ msg)));
  ]

(* A profiled solve exports the same span stream at any jobs level once
   the worker-domain tag — the only scheduling-dependent field — is
   zeroed; and its per-phase self ticks sum to the solve's ticks. *)
let determinism_tests =
  [
    Alcotest.test_case "profiled solve: jobs=1 == jobs=4 exports" `Slow
      (fun () ->
        let scenario () =
          let rng = Workload.Rng.create 23L in
          Tvnep.Scenario.generate rng
            { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.5 }
        in
        let solve jobs =
          let inst = scenario () in
          let budget =
            Budget.create ~deterministic:2e9 ~time_limit:10.0 ()
          in
          let prof = Span.create () in
          let mip =
            { Mip.Branch_bound.default_params with time_limit = 10.0; jobs }
          in
          let o =
            Tvnep.Solver.run inst
              (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Exact ~mip
                 ~budget ~prof ())
          in
          (o, Span.spans prof)
        in
        let strip spans =
          List.map (fun (s : Span.span) -> { s with Span.domain = 0 }) spans
        in
        let o1, s1 = solve 1 in
        let o4, s4 = solve 4 in
        Alcotest.(check int) "ticks equal" o1.Tvnep.Solver.ticks
          o4.Tvnep.Solver.ticks;
        Alcotest.(check string)
          "span streams equal with domains zeroed"
          (Span.to_jsonl (strip s1))
          (Span.to_jsonl (strip s4));
        Alcotest.(check int)
          "self ticks partition the solve"
          o1.Tvnep.Solver.ticks
          (Span.sum_self (Span.tree_of s1)));
    (* Counters have one home, Runtime.Stats, bumped whether or not a
       recorder is attached: profiling must not change a single one. *)
    Alcotest.test_case "profiling leaves the counters alone" `Slow (fun () ->
        let solve flow_form jobs prof =
          let inst =
            Tvnep.Scenario.generate (Workload.Rng.create 23L)
              { Tvnep.Scenario.scaled with num_requests = 5 }
          in
          let budget =
            Budget.create ~deterministic:2e9 ~time_limit:10.0 ()
          in
          let mip =
            { Mip.Branch_bound.default_params with time_limit = 10.0; jobs }
          in
          let o =
            Tvnep.Solver.run inst
              (Tvnep.Solver.Options.make ~method_:Tvnep.Solver.Exact
                 ~flow_form ~mip ~budget ?prof ())
          in
          Statsutil.Json.to_string (Runtime.Stats.to_json o.Tvnep.Solver.stats)
        in
        List.iter
          (fun (flow_form, jobs) ->
            Alcotest.(check string)
              (Printf.sprintf "%s, jobs %d"
                 (Tvnep.Solver.flow_form_to_string flow_form)
                 jobs)
              (solve flow_form jobs None)
              (solve flow_form jobs (Some (Span.create ()))))
          [
            (Tvnep.Solver.Arc, 1);
            (Tvnep.Solver.Arc, 4);
            (Tvnep.Solver.Path, 1);
            (Tvnep.Solver.Path, 4);
          ]);
  ]

let suite =
  [
    ("span", unit_tests);
    ("span exports", export_tests);
    ("span determinism", determinism_tests);
  ]
