(* Golden outcomes for every [Solver.run] code path.

   Each case solves two seeded scenarios on a deterministic budget with
   [mip.jobs = 1] and a wall-less span recorder attached, and pins a
   digest of the outcome JSON and of the exported span tree next to the
   readable status, objective and work ticks.  Any change to a decision,
   a tick, a counter or the phase tree of any method x relaxation shows
   up as a digest mismatch naming its case.

   One span-tree difference is tolerated: [build] / [colgen] wrappers
   directly under the rounding's [lp_relax] phase (the phases [Lp_only]
   records for the same work) are dropped and their subtrees lifted one
   level before hashing, so the rounded relaxation may or may not time
   its build and generation as phases of their own. *)

module Solver = Tvnep.Solver
module Span = Runtime.Span

let work_rate = 2e9
let seeds = [ 11L; 23L ]

let scenario seed =
  let rng = Workload.Rng.create seed in
  Tvnep.Scenario.generate rng
    { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.0 }

let mip = { Mip.Branch_bound.default_params with time_limit = 10.0; jobs = 1 }
let repricing = { Tvnep.Colgen_model.default_params with price_at_nodes = true }

(* Pin the lowest-index request at its earliest start and force the
   highest-index one: both edit the built model before any search. *)
let pins inst =
  let r = Tvnep.Instance.request inst 0 in
  [ (0, r.Tvnep.Request.start_min) ]

let forced inst = [ Tvnep.Instance.num_requests inst - 1 ]

type case = {
  name : string;
  time_limit : float;
  options :
    Tvnep.Instance.t ->
    budget:Runtime.Budget.t ->
    prof:Span.recorder ->
    Solver.Options.t;
}

let case ?(time_limit = 10.0) name options = { name; time_limit; options }

let method_case method_ flow_form =
  let colgen =
    match flow_form with
    | Solver.Path -> repricing
    | Solver.Arc -> Tvnep.Colgen_model.default_params
  in
  case
    (Printf.sprintf "%s/%s"
       (Solver.method_to_string method_)
       (Solver.flow_form_to_string flow_form))
    (fun _ ~budget ~prof ->
      Solver.Options.make ~method_ ~flow_form ~colgen
        ~seed_with_greedy:(method_ = Solver.Exact) ~mip ~budget ~prof ())

let cases =
  List.concat_map
    (fun m -> [ method_case m Solver.Arc; method_case m Solver.Path ])
    [ Solver.Exact; Solver.Lp_only; Solver.Rounded; Solver.Hybrid ]
  @ [
      case "greedy" (fun _ ~budget ~prof ->
          Solver.Options.make ~method_:Solver.Greedy ~mip ~budget ~prof ());
      case "exact/arc pinned+forced" (fun inst ~budget ~prof ->
          Solver.Options.make ~method_:Solver.Exact ~pinned:(pins inst)
            ~forced:(forced inst) ~mip ~budget ~prof ());
      case "exact/path pinned+forced" (fun inst ~budget ~prof ->
          Solver.Options.make ~method_:Solver.Exact ~flow_form:Solver.Path
            ~pinned:(pins inst) ~forced:(forced inst) ~mip ~budget ~prof ());
      case ~time_limit:0.0 "exact exhausted on entry" (fun _ ~budget ~prof ->
          Solver.Options.make ~method_:Solver.Exact ~mip ~budget ~prof ());
    ]

(* Drop [build]/[colgen] spans whose parent is [lp_relax], lifting their
   descendants one level; everything else passes through unchanged. *)
let normalize spans =
  let rec go stack = function
    | [] -> []
    | (s : Span.span) :: rest ->
      let stack = List.filter (fun (d, _, _) -> d < s.Span.depth) stack in
      let shift =
        List.length (List.filter (fun (_, _, dropped) -> dropped) stack)
      in
      let parent = match stack with (_, p, _) :: _ -> p | [] -> "" in
      let drop =
        parent = "lp_relax" && (s.Span.name = "build" || s.Span.name = "colgen")
      in
      let stack = (s.Span.depth, s.Span.name, drop) :: stack in
      if drop then go stack rest
      else { s with Span.depth = s.Span.depth - shift } :: go stack rest
  in
  go [] spans

type row = {
  status : string;
  objective : string;
  ticks : int;
  digest : string;
}

let run_case c inst =
  let prof = Span.create () in
  let budget =
    Runtime.Budget.create ~deterministic:work_rate ~time_limit:c.time_limit ()
  in
  let o = Solver.run inst (c.options inst ~budget ~prof) in
  let json = Statsutil.Json.to_string (Solver.outcome_to_json o) in
  let spans = Span.to_jsonl (normalize (Span.spans prof)) in
  {
    status = Solver.status_to_string o.Solver.status;
    objective =
      (match o.Solver.objective with
      | Some v -> Printf.sprintf "%.17g" v
      | None -> "none");
    ticks = o.Solver.ticks;
    digest = Digest.to_hex (Digest.string (json ^ "\n" ^ spans));
  }

(* (case, seed) -> status, objective, ticks, digest; recorded before the
   solver's arc/path pipelines were folded onto one relaxation handle. *)
let golden =
  [
    ( ("exact/arc", 11L),
      ("optimal", "51.795098621649423", 249739, "15d848449e8cc97bd15432e759932004") );
    ( ("exact/arc", 23L),
      ("optimal", "56.494575488042329", 1305260, "a2fccb64e29b1843fac5b9571f6c6194") );
    ( ("exact/path", 11L),
      ("optimal", "51.795098621649423", 976992, "dd06b2b047b5c98f2d0e23a17a6909ae") );
    ( ("exact/path", 23L),
      ("optimal", "56.494575488042329", 1365018, "93be5114195106fc489abefc8c7596cc") );
    ( ("lp_only/arc", 11L),
      ("optimal", "51.795098621649423", 197548, "28f1f404ccd12846190f1fd8b60638b1") );
    ( ("lp_only/arc", 23L),
      ("optimal", "67.107501332570635", 240128, "ed5d09fc0395c430d7bc1ea951ef33e0") );
    ( ("lp_only/path", 11L),
      ("optimal", "51.795098621649423", 234132, "9dd561f1071e168e7587e49ef8ec98aa") );
    ( ("lp_only/path", 23L),
      ("optimal", "67.107501332570635", 291601, "3f7f9e8e99b0870e4d036759e632de59") );
    ( ("rounded/arc", 11L),
      ("feasible", "51.795098621649423", 261689, "7a3e31e69357adfedc15f623a6d31d66") );
    ( ("rounded/arc", 23L),
      ("feasible", "56.494575488042329", 277805, "c6de97bb7c24552a74ca91d2a3999a43") );
    ( ("rounded/path", 11L),
      ("feasible", "51.795098621649423", 298273, "7817bf1cf05385c2e5adf61cbb1e4775") );
    ( ("rounded/path", 23L),
      ("feasible", "56.494575488042329", 324527, "57562e0e849eb38a12a93659460a5c20") );
    ( ("hybrid/arc", 11L),
      ("feasible", "35.868844969447004", 21244, "00f01aadb4e5bf9898810d0667aff082") );
    ( ("hybrid/arc", 23L),
      ("feasible", "56.494575488042329", 62308, "c3daff9cd05f9fc17ef7163616793147") );
    ( ("hybrid/path", 11L),
      ("feasible", "35.868844969447004", 31238, "78eeb06716c5416f2fce72b13f1d392b") );
    ( ("hybrid/path", 23L),
      ("feasible", "56.494575488042329", 71271, "3158744b9419cab485978a0a28069e4e") );
    ( ("greedy", 11L),
      ("feasible", "51.795098621649423", 64141, "25cee91c421c3a453c1856a783ba0a98") );
    ( ("greedy", 23L),
      ("feasible", "39.777074300504594", 57446, "f6aa5b224c6e6509c3328c8c7a968507") );
    ( ("exact/arc pinned+forced", 11L),
      ("optimal", "51.795098621649423", 458549, "11f65b3ea08477b9f6d69369469c7ea7") );
    ( ("exact/arc pinned+forced", 23L),
      ("optimal", "39.777074300504594", 645544, "33dc9948b858d47afce5e388fa987e99") );
    ( ("exact/path pinned+forced", 11L),
      ("optimal", "51.795098621649423", 599518, "e09c6b568233380fd7425f1e1a3a1883") );
    ( ("exact/path pinned+forced", 23L),
      ("optimal", "39.777074300504594", 560826, "113185f156ff1684b9baa64fd1ff31d1") );
    ( ("exact exhausted on entry", 11L),
      ("budget_exhausted", "none", 0, "899dcee48ae1b0cd3288ba4d55cbcb31") );
    ( ("exact exhausted on entry", 23L),
      ("budget_exhausted", "none", 0, "899dcee48ae1b0cd3288ba4d55cbcb31") );
  ]

let check_case c =
  Alcotest.test_case c.name `Quick (fun () ->
      List.iter
        (fun seed ->
          let got = run_case c (scenario seed) in
          let label = Printf.sprintf "%s seed %Ld" c.name seed in
          match List.assoc_opt (c.name, seed) golden with
          | None ->
            Alcotest.failf "%s: no golden row; got (%S, %S, %d, %S)" label
              got.status got.objective got.ticks got.digest
          | Some (status, objective, ticks, digest) ->
            Alcotest.(check string) (label ^ " status") status got.status;
            Alcotest.(check string) (label ^ " objective") objective
              got.objective;
            Alcotest.(check int) (label ^ " ticks") ticks got.ticks;
            Alcotest.(check string) (label ^ " digest") digest got.digest)
        seeds)

let suite = [ ("solver.golden", List.map check_case cases) ]
