(* Pricing sweeps on LPs built to tie.

   A full pricing sweep visits only the columns whose reduced cost can
   be nonzero — the structurals meeting a nonzero dual and the columns
   of nonzero cost — out of index order, and must still pick exactly
   the column, direction and candidate list of a scan over every column
   in index order.  The LPs below make that hard: small integer
   coefficients and costs (scores tie), duplicated columns (identical
   reduced costs), empty columns of nonzero cost (no dual ever touches
   them), free variables, rows that need phase-1 artificials, and
   column splices.  Each LP runs a one-shot solve (candidate lists and
   full sweeps alone), a session's cold solve, warm and carried
   re-solves and a column-generation continuation; the digest of every
   fingerprint (status, pivots, ticks, x, final basis, the nonzero
   counters with [pricing_sweeps]/[pricing_hits]) was recorded while
   every sweep still dotted every column.

   Next to it: every constraint matrix the solver prices has strictly
   ascending rows within each column, which makes a scattered a_j·y add
   its terms in the column dot's order. *)

module Simplex = Lp.Simplex
module Budget = Runtime.Budget
module Rstats = Runtime.Stats
module Rng = Workload.Rng

let small_coef rng = [| -2.0; -1.0; 1.0; 2.0 |].(Rng.int rng 4)
let small_cost rng = [| -2.0; -1.0; 0.0; 0.0; 1.0; 2.0 |].(Rng.int rng 6)

(* A tie-prone LP: [base] columns over [rows] rows, each entry in a row
   with probability 1/3, then copies of some of them (same entries,
   bounds and cost) and empty columns of nonzero cost.  One column in
   six is free, the rest boxed by small integer bounds; rows are ≥ and =
   rows with positive right-hand sides (cold starts need artificials), ≤
   rows, and one loose ≤ row whose dual stays zero. *)
let tie_form rng =
  let rows = 2 + Rng.int rng 12 and base = 2 + Rng.int rng 24 in
  let model = Lp.Model.create () in
  let terms = Array.make (rows + 1) [] in
  let add_col ~lb ~ub entries cost =
    let v = Lp.Model.add_var model ~lb ~ub in
    List.iter (fun (i, c) -> terms.(i) <- (v, c) :: terms.(i)) entries;
    (v, cost)
  in
  let bounds () =
    if Rng.int rng 6 = 0 then (neg_infinity, infinity)
    else (0.0, float_of_int (1 + Rng.int rng 3))
  in
  let cols =
    List.init base (fun _ ->
        let entries =
          List.filter_map
            (fun i ->
              if Rng.int rng 3 = 0 then Some (i, small_coef rng) else None)
            (List.init (rows + 1) Fun.id)
        in
        let lb, ub = bounds () in
        (lb, ub, entries, small_cost rng))
  in
  let copies =
    List.filter (fun _ -> Rng.int rng 4 = 0) cols
  in
  let objective =
    List.map (fun (lb, ub, entries, cost) -> add_col ~lb ~ub entries cost)
      (cols @ copies)
    @ List.init (Rng.int rng 3) (fun _ ->
          add_col ~lb:0.0 ~ub:1.0 [] (if Rng.bool rng then 1.0 else -1.0))
  in
  for i = 0 to rows - 1 do
    let rhs = float_of_int (1 + Rng.int rng 3) in
    match Rng.int rng 8 with
    | 0 | 1 -> Lp.Model.add_ge model terms.(i) rhs
    | 2 -> Lp.Model.add_eq model terms.(i) rhs
    | _ -> Lp.Model.add_le model terms.(i) (2.0 *. rhs)
  done;
  Lp.Model.add_le model terms.(rows) 1000.0;
  Lp.Model.set_objective model
    (if Rng.bool rng then Lp.Model.Minimize else Lp.Model.Maximize)
    objective;
  Lp.Std_form.of_model model

(* The columns spliced into a session: exact copies of the first and
   last structural (ties with their originals), a copy of the middle
   one at a lower cost, and an empty column of nonzero cost. *)
let splice_columns sf =
  let n = sf.Lp.Std_form.n_struct in
  let copy j shift =
    let entries = ref [] in
    Lina.Csc.iter_col sf.Lp.Std_form.a j (fun i v ->
        entries := (i, v) :: !entries);
    {
      Lp.Std_form.col_cost =
        sf.Lp.Std_form.obj_factor *. (sf.Lp.Std_form.cost.(j) -. shift);
      col_lb = 0.0;
      col_ub = 2.0;
      col_entries = !entries;
    }
  in
  [
    copy 0 0.0;
    copy (n - 1) 0.0;
    copy (n / 2) 1.0;
    { Lp.Std_form.col_cost = -1.0; col_lb = 0.0; col_ub = 1.0; col_entries = [] };
  ]

(* Every solve path a pricing sweep runs on: one fingerprint and one
   stats record each. *)
let ops sf =
  let run f =
    let budget = Test_lp_kernel.clock () and stats = Rstats.create () in
    let r = f budget stats in
    (r, (Test_lp_kernel.fingerprint r ~ticks:(Budget.ticks budget) stats, stats))
  in
  let _, one = run (fun budget stats -> Simplex.solve ~budget ~stats sf) in
  let _, full =
    run (fun budget stats ->
        Simplex.solve ~budget ~stats
          ~params:{ Simplex.default_params with partial_pricing = false }
          sf)
  in
  let session = Simplex.create_session sf in
  let lb, ub = Test_lp_kernel.root_bounds sf in
  let r_cold, cold =
    run (fun budget stats ->
        Simplex.session_cold_solve session ~budget ~stats ~lb ~ub ())
  in
  let j = sf.Lp.Std_form.n_struct / 2 in
  let ub' = Array.copy ub in
  if ub.(j) < infinity then ub'.(j) <- Float.max lb.(j) (ub.(j) -. 1.0);
  let _, warm =
    run (fun budget stats ->
        Simplex.session_solve session ~budget ~stats
          ?warm:r_cold.Simplex.final_basis ~lb ~ub:ub' ())
  in
  let _, carried =
    run (fun budget stats -> Simplex.session_solve session ~budget ~stats ~lb ~ub ())
  in
  let sf' = Simplex.session_add_columns session (splice_columns sf) in
  let lb', ub'' = Test_lp_kernel.root_bounds sf' in
  let _, primal =
    run (fun budget stats ->
        Simplex.session_solve session ~budget ~stats ~primal:true ~lb:lb'
          ~ub:ub'' ())
  in
  let _, dual =
    run (fun budget stats ->
        Simplex.session_solve session ~budget ~stats ~lb:lb' ~ub:ub'' ())
  in
  Simplex.session_release session;
  [ one; full; cold; warm; carried; primal; dual ]

(* Status tallies and pricing counters over the whole set, then the
   digest of every fingerprint. *)
let tie_digest () =
  let rng = Rng.create 3030L in
  let runs = List.concat_map (fun _ -> ops (tie_form rng)) (List.init 60 Fun.id) in
  let lines = List.map fst runs in
  let count prefix =
    List.length (List.filter (fun l -> String.starts_with ~prefix l) lines)
  in
  let sum field = List.fold_left (fun acc (_, st) -> acc + field st) 0 runs in
  Printf.sprintf "optimal=%d infeasible=%d unbounded=%d sweeps=%d hits=%d %s"
    (count "optimal") (count "infeasible") (count "unbounded")
    (sum (fun st -> st.Rstats.pricing_sweeps))
    (sum (fun st -> st.Rstats.pricing_hits))
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* --- warm dual re-solves ------------------------------------------------- *)

(* A dive of warm dual re-solves on one tie-prone LP, as branch-and-bound
   runs them: each step moves one bound of the structural whose value
   sits farthest from it — on odd steps the upper bound to one unit
   below the value, on even steps the lower bound to one unit above —
   and re-solves from the last optimal basis, installed explicitly on
   even steps and carried by the session on odd ones.  A child that is
   not optimal is undone.  The leaving rows of these dual pivots tie
   often (small integer data, unit devex weights at every start). *)
let dual_chain sf =
  let session = Simplex.create_session sf in
  let budget = Test_lp_kernel.clock () and stats = Rstats.create () in
  let lb, ub = Test_lp_kernel.root_bounds sf in
  let r = ref (Simplex.session_solve session ~budget ~stats ~lb ~ub ()) in
  let basis = ref !r.Simplex.final_basis in
  let steps = Buffer.create 256 in
  for step = 1 to 8 do
    if !r.Simplex.status = Simplex.Optimal then begin
      let x = !r.Simplex.x in
      let pick = ref (-1) and gap = ref 0.5 in
      Array.iteri
        (fun j v ->
          let g = if step mod 2 = 1 then v -. lb.(j) else ub.(j) -. v in
          if g < infinity && g > !gap then begin
            pick := j;
            gap := g
          end)
        x;
      if !pick >= 0 then begin
        let j = !pick in
        let lo = lb.(j) and hi = ub.(j) in
        if step mod 2 = 1 then ub.(j) <- Float.max lo (x.(j) -. 1.0)
        else lb.(j) <- Float.min hi (x.(j) +. 1.0);
        let child =
          if step mod 2 = 0 then
            Simplex.session_solve session ~budget ~stats ?warm:!basis ~lb ~ub ()
          else Simplex.session_solve session ~budget ~stats ~lb ~ub ()
        in
        Buffer.add_string steps
          (Printf.sprintf "%d:%s/%d/%d/%s/%s;" j
             (Simplex.status_to_string child.Simplex.status)
             child.Simplex.iterations (Budget.ticks budget)
             (Test_lp_kernel.digest_floats child.Simplex.x)
             (Test_lp_kernel.digest_basis child.Simplex.final_basis));
        if child.Simplex.status = Simplex.Optimal then begin
          r := child;
          basis := child.Simplex.final_basis
        end
        else begin
          lb.(j) <- lo;
          ub.(j) <- hi
        end
      end
    end
  done;
  Simplex.session_release session;
  (Buffer.contents steps, stats)

(* Pivots, ticks, x and bases of every step of every dive, digested. *)
let dual_chain_digest () =
  let rng = Rng.create 4040L in
  let runs = List.init 80 (fun _ -> dual_chain (tie_form rng)) in
  let sum field = List.fold_left (fun acc (_, st) -> acc + field st) 0 runs in
  Printf.sprintf "solves=%d pivots=%d %s"
    (sum (fun st -> st.Rstats.lp_solves))
    (sum (fun st -> st.Rstats.simplex_iterations))
    (Digest.to_hex (Digest.string (String.concat "\n" (List.map fst runs))))

(* --- row order ----------------------------------------------------------- *)

let check_ascending label sf =
  let a = sf.Lp.Std_form.a in
  for j = 0 to Lina.Csc.cols a - 1 do
    for e = a.Lina.Csc.col_ptr.(j) + 1 to a.Lina.Csc.col_ptr.(j + 1) - 1 do
      if a.Lina.Csc.row_idx.(e - 1) >= a.Lina.Csc.row_idx.(e) then
        Alcotest.failf "%s: column %d lists row %d before row %d" label j
          a.Lina.Csc.row_idx.(e - 1) a.Lina.Csc.row_idx.(e)
    done
  done

let scenario ~k ~flex seed =
  Tvnep.Scenario.generate (Rng.create seed)
    { Tvnep.Scenario.scaled with num_requests = k; flexibility = flex }

let std_form (fm : Tvnep.Formulation.t) = Lp.Std_form.of_model fm.Tvnep.Formulation.model

(* The path master of [inst] before and after its pricing rounds;
   returns the columns pricing generated. *)
let check_colgen label inst =
  let cg =
    Tvnep.Colgen_model.build
      ~params:{ Tvnep.Colgen_model.default_params with seed_paths = 1 }
      inst
  in
  ignore
    (Tvnep.Objective.apply (Tvnep.Colgen_model.formulation cg)
       Tvnep.Objective.Access_control);
  check_ascending (label ^ " path master") (Tvnep.Colgen_model.std_form cg);
  let budget = Runtime.Budget.create ~deterministic:2e9 ~time_limit:20.0 () in
  let r = Tvnep.Colgen_model.generate ~budget cg in
  check_ascending (label ^ " priced path master") r.Tvnep.Colgen_model.sf;
  Tvnep.Colgen_model.release cg;
  r.Tvnep.Colgen_model.generated

let row_order_test () =
  List.iter
    (fun seed ->
      let inst = scenario ~k:4 ~flex:1.0 seed in
      let tag name = Printf.sprintf "%s seed %Ld" name seed in
      check_ascending (tag "cSigma") (std_form (Tvnep.Csigma_model.build inst));
      check_ascending (tag "Sigma") (std_form (Tvnep.Sigma_model.build inst));
      check_ascending (tag "Delta") (std_form (Tvnep.Delta_model.build inst));
      let participants =
        List.init (Tvnep.Instance.num_requests inst) (fun req ->
            let r = Tvnep.Instance.request inst req in
            let s = r.Tvnep.Request.start_min in
            (req, s, s +. r.Tvnep.Request.duration))
      in
      check_ascending (tag "greedy flow LP")
        (Tvnep.Greedy.flow_lp inst participants);
      ignore (check_colgen (tag "") inst : int))
    [ 3L; 11L ];
  (* Pricing must splice a column into the bottleneck instance's master. *)
  if check_colgen "bottleneck" (Test_colgen.bottleneck_instance ()) = 0 then
    Alcotest.fail "bottleneck: pricing generated no column";
  (* A splice whose entries are listed in descending row order. *)
  let sf = tie_form (Rng.create 7L) in
  let rows = List.init sf.Lp.Std_form.n_rows (fun i -> (i, 1.0)) in
  check_ascending "descending splice"
    (Lp.Std_form.append_columns sf
       [ { Lp.Std_form.col_cost = 1.0; col_lb = 0.0; col_ub = 1.0;
           col_entries = List.rev rows } ])

let suite =
  [
    ( "lp.pricing",
      [
        Test_lp_kernel.pinned "tie-prone LPs price as a full index-order scan"
          "optimal=174 infeasible=169 unbounded=77 sweeps=1578 hits=980 5873e985c590222329d89c26cc07d5e9"
          tie_digest;
        Alcotest.test_case "every priced matrix has ascending rows" `Quick
          row_order_test;
        Test_lp_kernel.pinned "warm dual re-solves on tie-prone LPs"
          "solves=283 pivots=1301 83bdf1782b03659e4dec7b02bc812074"
          dual_chain_digest;
      ] );
  ]
