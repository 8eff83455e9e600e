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

(* (case, seed) -> status, objective, ticks, digest. *)
let golden =
  [
    ( ("exact/arc", 11L),
      ("optimal", "51.795098621649423", 249739, "f6e1f70a86dfa60e9baa446aaa25e22f") );
    ( ("exact/arc", 23L),
      ("optimal", "56.494575488042329", 1305260, "0708088231d2f194a76b2ce235a9d525") );
    ( ("exact/path", 11L),
      ("optimal", "51.795098621649423", 976992, "e85e679b93412468296d35aebe7b2b04") );
    ( ("exact/path", 23L),
      ("optimal", "56.494575488042329", 1365018, "8996b4eeb9d2ad3923d6d98f952d092a") );
    ( ("lp_only/arc", 11L),
      ("optimal", "51.795098621649423", 197548, "55a215fe8e886b0db24bbd91b431a865") );
    ( ("lp_only/arc", 23L),
      ("optimal", "67.107501332570635", 240128, "d3b55f29b1bcc3e7af560c0c7b2faf56") );
    ( ("lp_only/path", 11L),
      ("optimal", "51.795098621649423", 234132, "349a16e27f3aefb216435a12106a1649") );
    ( ("lp_only/path", 23L),
      ("optimal", "67.107501332570635", 291601, "448cd0a0688bf16d442154ba1ed6e533") );
    ( ("rounded/arc", 11L),
      ("feasible", "51.795098621649423", 261689, "6ff242fcd53fc69ff1c0072a12c9b7f3") );
    ( ("rounded/arc", 23L),
      ("feasible", "56.494575488042329", 277805, "a418a581fefa43c15bebe06cf59cb81f") );
    ( ("rounded/path", 11L),
      ("feasible", "51.795098621649423", 298273, "b80af4105e52fdf3fd1cde0195b32133") );
    ( ("rounded/path", 23L),
      ("feasible", "56.494575488042329", 324527, "08fdb54312a9d71d9bfadf687f303d83") );
    ( ("hybrid/arc", 11L),
      ("feasible", "35.868844969447004", 21244, "94d95bad71c0dccac5e877fb71e47f5d") );
    ( ("hybrid/arc", 23L),
      ("feasible", "56.494575488042329", 62308, "a937e1cc87f495410297fe13fecef152") );
    ( ("hybrid/path", 11L),
      ("feasible", "35.868844969447004", 31238, "68f03e583eb7e1fefd45e7cd23128f2b") );
    ( ("hybrid/path", 23L),
      ("feasible", "56.494575488042329", 71271, "2cbd7952db0fb34ee2e76099060f9e89") );
    ( ("greedy", 11L),
      ("feasible", "51.795098621649423", 64141, "e7eb9fd8b63780399bf0c4e7fd733611") );
    ( ("greedy", 23L),
      ("feasible", "39.777074300504594", 57446, "622cc6322329a4788b303add26ff4a2c") );
    ( ("exact/arc pinned+forced", 11L),
      ("optimal", "51.795098621649423", 458549, "0929246e65c833885f3f91d63a3fef1a") );
    ( ("exact/arc pinned+forced", 23L),
      ("optimal", "39.777074300504594", 645544, "b94543dbee8a3aabcd4a597b04895f2b") );
    ( ("exact/path pinned+forced", 11L),
      ("optimal", "51.795098621649423", 599518, "aef31be8040ab802bd83da67497c7038") );
    ( ("exact/path pinned+forced", 23L),
      ("optimal", "39.777074300504594", 560826, "333a7bc24dfeb5f94a10371b5882a921") );
    ( ("exact exhausted on entry", 11L),
      ("budget_exhausted", "none", 0, "544b47a333f94c6058adaf8c1981b4a1") );
    ( ("exact exhausted on entry", 23L),
      ("budget_exhausted", "none", 0, "544b47a333f94c6058adaf8c1981b4a1") );
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
