(* Bench_harness.Record: the one BENCH_*.json codec (bit-exact round trip,
   the validator's rejections), the tick trajectory gate, and every
   committed BENCH_*.json decoding and passing its bench's gates — which
   in turn fail on a mutated copy of the committed document. *)

module Record = Bench_harness.Record
module Json = Statsutil.Json

let bits = Int64.bits_of_float

let record ?(ticks = 1000) ?(counters = []) ?detail label =
  {
    Record.label;
    status = "optimal";
    objective = 1.5;
    ticks;
    wall_s = 0.25;
    minor_words = 4096.0;
    counters;
    detail;
  }

let doc runs = { Record.bench = "test"; clock = "work"; runs }

let encode d = Json.to_string (Record.to_json d)

let decode s =
  match Record.of_string s with
  | Ok d -> d
  | Error msg -> Alcotest.failf "does not decode: %s" msg

(* The encoded document with one run's fields rewritten by [f]. *)
let with_run_fields f d =
  match Record.to_json d with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "runs", Json.List (Json.Obj r :: rest) ->
             (k, Json.List (Json.Obj (f r) :: rest))
           | _ -> (k, v))
         fields)
  | _ -> assert false

let rejects what j =
  match Record.of_json j with
  | Ok _ -> Alcotest.failf "accepted a document with %s" what
  | Error _ -> ()

let codec_tests =
  [
    Alcotest.test_case "round trip is bit-exact, detail and order kept"
      `Quick (fun () ->
        let detail =
          Json.Obj
            [ ("records", Json.List [ Json.Num 0.1; Json.Str "x"; Json.Null ]) ]
        in
        let r =
          {
            (record "a" ~counters:
               [ ("zeta", Float.infinity); ("alpha", Float.neg_infinity);
                 ("mid", 0.1 +. 0.2); ("none", Float.nan); ("neg", -0.0) ]
               ~detail)
            with
            objective = Float.nan;
            wall_s = 1e-300;
          }
        in
        let d = doc [ r; record "b" ] in
        let back = decode (encode d) in
        Alcotest.(check bool) "equal" true
          (List.equal Record.equal back.runs d.runs);
        let r' = List.hd back.runs in
        Alcotest.(check (list string))
          "counter order" [ "zeta"; "alpha"; "mid"; "none"; "neg" ]
          (List.map fst r'.counters);
        List.iter2
          (fun (k, x) (_, y) ->
            Alcotest.(check int64) ("bits of " ^ k) (bits x) (bits y))
          r.counters r'.counters;
        Alcotest.(check int64) "nan objective" (bits Float.nan)
          (bits r'.objective);
        Alcotest.(check bool) "detail" true (r'.detail = Some detail);
        Alcotest.(check bool) "no detail" true
          ((List.nth back.runs 1).detail = None);
        Alcotest.(check string) "bench" "test" back.bench);
    Alcotest.test_case "the validator rejects malformed documents" `Quick
      (fun () ->
        let d = doc [ record "a" ~counters:[ ("nodes", 3.0) ]; record "b" ] in
        (match Record.to_json d with
        | Json.Obj fields ->
          rejects "a wrong schema"
            (Json.Obj
               (List.map
                  (fun (k, v) ->
                    if k = "schema" then (k, Json.Str "tvnep-bench/0")
                    else (k, v))
                  fields))
        | _ -> assert false);
        rejects "a run without ticks"
          (with_run_fields (List.remove_assoc "ticks") d);
        rejects "a run without counters"
          (with_run_fields (List.remove_assoc "counters") d);
        List.iter
          (fun bad ->
            rejects
              (Printf.sprintf "ticks = %g" bad)
              (with_run_fields
                 (List.map (fun (k, v) ->
                      if k = "ticks" then (k, Json.Num bad) else (k, v)))
                 d))
          [ 3.5; 1e300 ];
        rejects "a non-numeric counter"
          (with_run_fields
             (List.map (fun (k, v) ->
                  if k = "counters" then
                    (k, Json.Obj [ ("nodes", Json.Str "three") ])
                  else (k, v)))
             d);
        rejects "a boolean counter"
          (with_run_fields
             (List.map (fun (k, v) ->
                  if k = "counters" then
                    (k, Json.Obj [ ("nodes", Json.Bool true) ])
                  else (k, v)))
             d);
        rejects "a duplicate label"
          (Record.to_json (doc [ record "a"; record "a" ]));
        rejects "no runs" (Record.to_json (doc [])));
    Alcotest.test_case "write checks the file it replaces" `Quick (fun () ->
        let dir = Filename.get_temp_dir_name () in
        let d =
          { (doc [ record "a" ~ticks:1000 ]) with
            bench = Printf.sprintf "record-test-%d" (Unix.getpid ()) }
        in
        let path = Filename.concat dir ("BENCH_" ^ d.bench ^ ".json") in
        let written d = Result.is_ok (Record.write ~dir d) in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () ->
            Alcotest.(check bool) "no baseline" true (written d);
            Alcotest.(check bool) "same ticks" true (written d);
            Alcotest.(check bool) "regressed" false
              (written { d with runs = [ record "a" ~ticks:1101 ] });
            let back = decode (Record.read_file path) in
            Alcotest.(check bool) "the regressed run is not written" true
              (List.equal Record.equal back.runs d.runs);
            let oc = open_out_bin path in
            output_string oc "{\"schema\": \"tvnep-bench-bnb/2\"}";
            close_out oc;
            Alcotest.(check bool) "undecodable baseline" false (written d)));
  ]

let trajectory_tests =
  let verdict ~baseline runs =
    Result.is_ok (Record.trajectory ~baseline runs)
  in
  [
    Alcotest.test_case "exactly +10% passes, one tick more fails" `Quick
      (fun () ->
        let baseline = [ record "a" ~ticks:1000 ] in
        Alcotest.(check bool) "+10%" true
          (verdict ~baseline [ record "a" ~ticks:1100 ]);
        Alcotest.(check bool) "+10% and a tick" false
          (verdict ~baseline [ record "a" ~ticks:1101 ]);
        Alcotest.(check bool) "fewer ticks" true
          (verdict ~baseline [ record "a" ~ticks:10 ]));
    Alcotest.test_case "wall-only and new runs carry no trajectory" `Quick
      (fun () ->
        let baseline = [ record "a" ~ticks:0; record "b" ~ticks:1000 ] in
        Alcotest.(check bool) "wall-only baseline" true
          (verdict ~baseline [ record "a" ~ticks:5000 ]);
        Alcotest.(check bool) "wall-only run" true
          (verdict ~baseline [ record "b" ~ticks:0 ]);
        Alcotest.(check bool) "no same-label baseline" true
          (verdict ~baseline [ record "c" ~ticks:5000 ]));
  ]

(* --- the committed files ------------------------------------------------ *)

let committed bench =
  decode (Record.read_file (Printf.sprintf "../BENCH_%s.json" bench))

let benches =
  [
    ("bnb", Bench_harness.Bnb.gates);
    ("colgen", Bench_harness.Colgen_bench.gates);
    ("simplex", Bench_harness.Micro.gates);
    ("service", Bench_harness.Service_bench.gates);
  ]

(* The committed runs with [label]'s run rewritten by [f]. *)
let mutate bench label f =
  List.map
    (fun (r : Record.t) -> if r.label = label then f r else r)
    (committed bench).runs

let set_counter k v (r : Record.t) =
  {
    r with
    counters =
      List.map (fun (k', x) -> (k', if k' = k then v else x)) r.counters;
  }

let fails gates runs =
  Alcotest.(check bool) "a gate fails" true (Record.check gates runs <> [])

let committed_tests =
  List.map
    (fun (bench, gates) ->
      Alcotest.test_case (Printf.sprintf "BENCH_%s.json passes its gates" bench)
        `Quick (fun () ->
          let d = committed bench in
          Alcotest.(check string) "bench" bench d.bench;
          Alcotest.(check (list string))
            "failures" [] (Record.check gates d.runs)))
    benches
  @ [
      Alcotest.test_case "each bench's gates fail a mutated document" `Quick
        (fun () ->
          fails Bench_harness.Colgen_bench.gates
            (let arc = Record.find "arc" (committed "colgen").runs in
             mutate "colgen" "path" (fun r -> { r with ticks = arc.ticks }));
          fails Bench_harness.Service_bench.gates
            (mutate "service" "rounded-chain" (fun r ->
                 set_counter "accepted"
                   (Record.counter
                      (Record.find "greedy-chain" (committed "service").runs)
                      "accepted"
                   -. 1.0)
                   r));
          fails Bench_harness.Bnb.gates
            (mutate "bnb" "jobs=2" (fun r ->
                 { r with objective = r.objective +. 1e-9 }));
          fails Bench_harness.Micro.gates
            (mutate "simplex" "kernel-ab" (fun r ->
                 set_counter "btran_reach_us"
                   (Record.counter r "btran_dense_us" /. 1.9)
                   r)));
      Alcotest.test_case "a gate reading a missing run fails" `Quick (fun () ->
          fails Bench_harness.Colgen_bench.gates
            (List.filter
               (fun (r : Record.t) -> r.label <> "arc")
               (committed "colgen").runs));
    ]

let suite =
  [ ("bench.record", codec_tests @ trajectory_tests @ committed_tests) ]
