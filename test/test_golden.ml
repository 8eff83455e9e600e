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
      ("optimal", "51.795098621649423", 249739, "ef5a775f9eb933dc1359301c56aa366b") );
    ( ("exact/arc", 23L),
      ("optimal", "56.494575488042329", 1305260, "0cb844ec512224f700382a1afc4b70f7") );
    ( ("exact/path", 11L),
      ("optimal", "51.795098621649423", 976992, "70bae48196c86db4d7e8c8437110a234") );
    ( ("exact/path", 23L),
      ("optimal", "56.494575488042329", 1365018, "927c4a5bc12f7668964763c3c09da435") );
    ( ("lp_only/arc", 11L),
      ("optimal", "51.795098621649423", 197548, "f773d737a000e14c97dabcc4bae6dd45") );
    ( ("lp_only/arc", 23L),
      ("optimal", "67.107501332570635", 240128, "5242b619fcacb62bc2136658688fa38d") );
    ( ("lp_only/path", 11L),
      ("optimal", "51.795098621649423", 234132, "6ddae9801bd127786f7717acd0e9f6fd") );
    ( ("lp_only/path", 23L),
      ("optimal", "67.107501332570635", 291601, "2e3c2294a12450e6a76d4610ab3ade14") );
    ( ("rounded/arc", 11L),
      ("feasible", "51.795098621649423", 261689, "3a41a3b147b627e2a4d3aae87772b7e8") );
    ( ("rounded/arc", 23L),
      ("feasible", "56.494575488042329", 277805, "1727f0782ee2e460a167017f3a380f30") );
    ( ("rounded/path", 11L),
      ("feasible", "51.795098621649423", 298273, "20ba4935e94c517a89898f5e7c087ed9") );
    ( ("rounded/path", 23L),
      ("feasible", "56.494575488042329", 324527, "23afb251af9b88c446ac5f22a6624fee") );
    ( ("hybrid/arc", 11L),
      ("feasible", "35.868844969447004", 21244, "464bbd9ced3eeabc65737704091cfad9") );
    ( ("hybrid/arc", 23L),
      ("feasible", "56.494575488042329", 62308, "fdea654eb7e28ac932a1bad23e7536e5") );
    ( ("hybrid/path", 11L),
      ("feasible", "35.868844969447004", 31238, "9377f7987c456c55c6ac67d0bc7162d9") );
    ( ("hybrid/path", 23L),
      ("feasible", "56.494575488042329", 71271, "825f9b9cff96feb908cc8350d116e5b9") );
    ( ("greedy", 11L),
      ("feasible", "51.795098621649423", 64141, "9e3712cc28a1fdba069ee4470b10fc71") );
    ( ("greedy", 23L),
      ("feasible", "39.777074300504594", 57446, "03480dc06ab868d2e3116bb76a3347fc") );
    ( ("exact/arc pinned+forced", 11L),
      ("optimal", "51.795098621649423", 458549, "647d64d42c84be7f048eabe73f1fdfae") );
    ( ("exact/arc pinned+forced", 23L),
      ("optimal", "39.777074300504594", 645544, "52e707c0d1f8205192121225a480b8be") );
    ( ("exact/path pinned+forced", 11L),
      ("optimal", "51.795098621649423", 599518, "a8836669ce2ce04fdb41f1533650efb4") );
    ( ("exact/path pinned+forced", 23L),
      ("optimal", "39.777074300504594", 560826, "4f935c90de292f3f2a6224635dcfe0d0") );
    ( ("exact exhausted on entry", 11L),
      ("budget_exhausted", "none", 0, "c92c148100682a5bbf0feef9257de397") );
    ( ("exact exhausted on entry", 23L),
      ("budget_exhausted", "none", 0, "c92c148100682a5bbf0feef9257de397") );
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
