(* The benchmark's own tests: metric catalogue and BENCHMARK.json agree
   and obey the naming rules, runs are deterministic, and the result
   line parses back.  Workloads are shrunk so the suite stays fast. *)

open Perfbench
module J = Statsutil.Json

let tiny_offline =
  {
    Workloads.offline_flex with
    shape =
      Workloads.Offline
        { o_requests = 4; o_flexibilities = [ 0.0; 1.0 ]; o_ticks = 2_000_000 };
  }

let tiny_grid =
  {
    Workloads.grid_relax with
    shape =
      Workloads.Grid
        {
          g_rows = 3;
          g_cols = 4;
          g_leaves = 2;
          g_requests = 2;
          g_flexibility = 1.0;
          g_ticks = 2_000_000_000;
        };
  }

let tiny_service =
  {
    Workloads.service_contended with
    shape =
      Workloads.Service
        {
          s_arrivals = 8;
          s_arrival_rate = 3.0;
          s_weibull_scale = 1.5;
          s_flexibility = 1.0;
          s_slice = 2e-3;
          s_exact_fraction = 0.3;
        };
  }

let tiny = [ tiny_offline; tiny_grid; tiny_service ]

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with Ok j -> j | Error e -> Alcotest.fail e

let field name j =
  match J.member name j with Some v -> v | None -> Alcotest.failf "no %s" name

let str j = match j with J.Str s -> s | _ -> Alcotest.fail "not a string"
let num j = match J.to_float j with Some f -> f | None -> Alcotest.fail "not a number"
let list j = match J.to_list j with Some l -> l | None -> Alcotest.fail "not a list"

let test_names () =
  let names =
    List.map (fun m -> m.Catalogue.name) Catalogue.end_to_end
    @ List.map (fun (n, _, _) -> n) Catalogue.per_layer
    @ List.map (fun c -> c.Workloads.name) Workloads.workloads
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (Catalogue.valid_name n))
    names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_end_to_end_bounds () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Catalogue.name ^ " has a unit") true (m.Catalogue.unit_ <> "");
      Alcotest.(check bool) (m.Catalogue.name ^ " has a bound in (0, 0.25]") true
        (m.Catalogue.bound > 0.0 && m.Catalogue.bound <= 0.25))
    Catalogue.end_to_end;
  Alcotest.(check bool) "setup_s is present" true
    (List.exists (fun m -> m.Catalogue.name = "setup_s") Catalogue.end_to_end)

let test_benchmark_json () =
  let j = benchmark_json () in
  let e2e =
    List.map
      (fun m ->
        (str (field "name" m), str (field "unit" m), str (field "better" m),
         num (field "bound" m)))
      (list (field "end_to_end" j))
  in
  let expected =
    List.map
      (fun m ->
        (m.Catalogue.name, m.Catalogue.unit_,
         Catalogue.better_to_string m.Catalogue.better, m.Catalogue.bound))
      Catalogue.end_to_end
  in
  Alcotest.(check (list (pair (pair string string) (pair string (float 0.0)))))
    "end_to_end matches the catalogue"
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) expected)
    (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) e2e);
  let layers =
    List.map
      (fun m ->
        (str (field "name" m), (str (field "unit" m), str (field "better" m))))
      (list (field "per_layer" j))
  in
  Alcotest.(check (list (pair string (pair string string))))
    "per_layer matches the catalogue"
    (List.map
       (fun (n, u, b) -> (n, (u, Catalogue.better_to_string b)))
       Catalogue.per_layer)
    layers;
  let workloads = List.map (fun w -> str (field "name" w)) (list (field "workloads" j)) in
  Alcotest.(check (list string)) "workloads match"
    (List.map (fun c -> c.Workloads.name) Workloads.workloads) workloads

(* A factor is the reference over the median of the samples around it:
   one outlying sample leaves its neighbours' factors alone, and the
   calibrated calls of a unit are its raw calls times its sample's
   factor. *)
let test_calibration () =
  let r = Calib.reference_s in
  let samples = [| r; r; r; 4.0 *. r; r; r; r; 2.0 *. r; 2.0 *. r; 2.0 *. r |] in
  let f = Calib.factors ~radius:1 samples in
  Alcotest.(check (float 1e-12)) "outlier ignored" 1.0 f.(3);
  Alcotest.(check (float 1e-12)) "steady host" 1.0 f.(1);
  Alcotest.(check (float 1e-12)) "host at half speed" 0.5 f.(8);
  Alcotest.(check (float 1e-12)) "speed is the median" 1.0 (Calib.speed samples);
  let a = Workloads.create_acc () in
  a.Workloads.calls <- [ 3.0; 2.0; 1.0 ];
  let steady = Array.make 10 r and slow = Array.make 10 (2.0 *. r) in
  Alcotest.(check (array (float 1e-12))) "steady calls unchanged" [| 1.0; 2.0; 3.0 |]
    (Measure.calibrated_calls a steady [ (0, 2); (9, 1) ]);
  Alcotest.(check (array (float 1e-12))) "slow calls halved" [| 0.5; 1.0; 1.5 |]
    (Measure.calibrated_calls a slow [ (0, 2); (9, 1) ])

let fps units =
  Array.map (fun o -> o.Workloads.fp) (Workloads.ops (Workloads.run_units units))

let test_deterministic config () =
  let units = Workloads.generate config ~seed:3 ~count:2 in
  let a = Workloads.run_units units in
  Alcotest.(check int) "no failed operation" 0
    (Measure.count_bad (Workloads.ops a));
  Alcotest.(check (array string)) "equal fingerprints across runs"
    (Array.map (fun o -> o.Workloads.fp) (Workloads.ops a)) (fps units);
  Alcotest.(check (array string)) "same seed, same inputs" (fps units)
    (fps (Workloads.generate config ~seed:3 ~count:2))

let metric_names r = List.map (fun m -> m.Measure.m_name) r.Measure.metrics

let parse_back r =
  match J.of_string (Measure.to_json r) with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (list string)) "exactly the four keys"
      [ "attempted"; "correct"; "failed"; "metrics" ]
      (match j with
       | J.Obj kv -> List.sort compare (List.map fst kv)
       | _ -> Alcotest.fail "not an object");
    Alcotest.(check bool) "correct" true (field "correct" j = J.Bool true);
    Alcotest.(check (float 0.0)) "attempted"
      (float_of_int r.Measure.attempted) (num (field "attempted" j));
    match field "metrics" j with
    | J.Obj kv ->
      List.iter2
        (fun m (k, v) ->
          Alcotest.(check string) "metric name" m.Measure.m_name k;
          Alcotest.(check (float 0.0)) k m.Measure.value (num (field "value" v));
          Alcotest.(check string) (k ^ " unit") m.Measure.m_unit (str (field "unit" v)))
        r.Measure.metrics kv
    | _ -> Alcotest.fail "metrics is not an object"

let test_untraced config () =
  let r = Measure.run config ~seed:5 ~seconds:0.0 in
  Alcotest.(check int) "nothing failed" 0 r.Measure.failed;
  Alcotest.(check (list string)) "every end-to-end metric"
    (List.map (fun m -> m.Catalogue.name) Catalogue.end_to_end) (metric_names r);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Measure.m_name ^ " is finite and non-zero") true
        (Float.is_finite m.Measure.value && m.Measure.value <> 0.0))
    r.Measure.metrics;
  parse_back r

let test_traced config () =
  let r = Traced.run config ~seed:5 ~seconds:0.0 in
  Alcotest.(check int) "nothing failed" 0 r.Measure.failed;
  Alcotest.(check (list string)) "every per-layer metric"
    (List.map (fun (n, _, _) -> n) Catalogue.per_layer) (metric_names r);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Measure.m_name ^ " is finite") true
        (Float.is_finite m.Measure.value))
    r.Measure.metrics;
  parse_back r

let per_workload name f =
  List.map
    (fun c -> Alcotest.test_case (name ^ " " ^ c.Workloads.name) `Quick (f c))
    tiny

let () =
  Alcotest.run "perfbench"
    [
      ( "catalogue",
        [
          Alcotest.test_case "metric and workload names" `Quick test_names;
          Alcotest.test_case "end-to-end units and bounds" `Quick test_end_to_end_bounds;
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json;
        ] );
      ("calibration", [ Alcotest.test_case "factors and scaling" `Quick test_calibration ]);
      ("determinism", per_workload "two runs agree:" test_deterministic);
      ( "result",
        per_workload "untraced" test_untraced @ per_workload "traced" test_traced );
    ]
