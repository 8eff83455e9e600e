(* Fingerprints of the LP kernel on fixed inputs.

   Each case runs one solve path on the deterministic work clock and
   reduces what it observes to one line: status, iterations, ticks, an
   MD5 of the primal values and of the final basis, and the solve's
   [Runtime.Stats] JSON.  The expected lines were recorded before the
   kernels were reworked for sparse work (support-driven pivots,
   closure-free column loops, reused factorization scratch); every pivot,
   tick and counter must stay exactly as it was, so any change to a
   decision or a bill shows up here with the case that moved. *)

module Simplex = Lp.Simplex
module Budget = Runtime.Budget
module Rstats = Runtime.Stats

let csigma_options =
  { Tvnep.Csigma_model.use_cuts = true; pairwise_cuts = true;
    relax_integrality = false }

let std_form_of inst =
  let fm = Tvnep.Csigma_model.build ~options:csigma_options inst in
  ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
  Lp.Std_form.of_model fm.Tvnep.Formulation.model

(* The offline-flex unit shape: the scaled generator with 8 requests, the
   1 h cell of a flexibility sweep. *)
let offline_root_sf () =
  let p = { Tvnep.Scenario.scaled with num_requests = 8 } in
  match Tvnep.Scenario.sweep ~seed:4242L p ~flexibilities:[ 1.0 ] with
  | [ inst ] -> std_form_of inst
  | _ -> assert false

(* One grid-relax instance: the 7×8 grid, 4-leaf stars, 2 requests, 2 h
   of flexibility. *)
let grid_arc_sf () =
  let p =
    {
      Tvnep.Scenario.scaled with
      grid_rows = 7;
      grid_cols = 8;
      star_leaves = 4;
      num_requests = 2;
      flexibility = 2.0;
    }
  in
  std_form_of (Tvnep.Scenario.generate (Workload.Rng.create 31L) p)

let hex s = Digest.to_hex (Digest.string s)

let digest_floats a =
  let b = Buffer.create (16 * Array.length a) in
  Array.iter
    (fun v -> Buffer.add_string b (Int64.to_string (Int64.bits_of_float v) ^ ","))
    a;
  hex (Buffer.contents b)

let digest_basis = function
  | None -> "none"
  | Some { Simplex.basic; stat } ->
    let b = Buffer.create (8 * Array.length basic) in
    Array.iter (fun j -> Buffer.add_string b (string_of_int j ^ ",")) basic;
    Array.iter
      (fun s ->
        Buffer.add_char b
          (match s with
          | Simplex.Basic -> 'B'
          | Simplex.At_lower -> 'L'
          | Simplex.At_upper -> 'U'
          | Simplex.Free_nb -> 'F'))
      stat;
    hex (Buffer.contents b)

(* The nonzero counters of a stats record, [name=value] comma-separated. *)
let counters stats =
  match Rstats.to_json stats with
  | Statsutil.Json.Obj fields ->
    String.concat ","
      (List.filter_map
         (function
           | k, Statsutil.Json.Num v when v <> 0.0 -> Some (Printf.sprintf "%s=%g" k v)
           | _ -> None)
         fields)
  | _ -> assert false

let fingerprint (r : Simplex.result) ~ticks stats =
  Printf.sprintf "%s it=%d ticks=%d x=%s basis=%s %s"
    (Simplex.status_to_string r.Simplex.status)
    r.Simplex.iterations ticks (digest_floats r.Simplex.x)
    (digest_basis r.Simplex.final_basis)
    (counters stats)

let clock () = Budget.create ~deterministic:1.0 ()

let cold_solve sf =
  let budget = clock () and stats = Rstats.create () in
  let r = Simplex.solve ~budget ~stats sf in
  fingerprint r ~ticks:(Budget.ticks budget) stats

let root_bounds sf =
  let n_total = Lp.Std_form.n_total sf in
  (Array.sub sf.Lp.Std_form.lb 0 n_total, Array.sub sf.Lp.Std_form.ub 0 n_total)

(* A dive of warm dual re-solves: each step fixes the most fractional
   integer column of the last optimum (alternating down and up) and
   re-solves from the last optimal basis; an infeasible child is undone
   and its sibling taken.  Every other step installs the basis
   explicitly ([~warm], as branch-and-bound does); the rest re-solve from
   the basis the session carries. *)
let warm_chain sf =
  let session = Simplex.create_session sf in
  let budget = clock () and stats = Rstats.create () in
  let lb, ub = root_bounds sf in
  let r = ref (Simplex.session_solve session ~budget ~stats ~lb ~ub ()) in
  let steps = Buffer.create 256 in
  let basis = ref !r.Simplex.final_basis in
  for step = 1 to 12 do
    let x = !r.Simplex.x in
    let pick = ref (-1) and best = ref 0.0 in
    Array.iteri
      (fun j is_int ->
        if is_int then begin
          let f = Float.abs (x.(j) -. Float.round x.(j)) in
          if f > !best +. 1e-9 then begin
            pick := j;
            best := f
          end
        end)
      sf.Lp.Std_form.integer;
    if !pick >= 0 then begin
      let j = !pick in
      let lo = lb.(j) and hi = ub.(j) in
      let solve () =
        if step mod 2 = 0 then
          Simplex.session_solve session ~budget ~stats ?warm:!basis ~lb ~ub ()
        else Simplex.session_solve session ~budget ~stats ~lb ~ub ()
      in
      if step mod 2 = 0 then ub.(j) <- Float.floor x.(j)
      else lb.(j) <- Float.ceil x.(j);
      let child = solve () in
      let child =
        if child.Simplex.status = Simplex.Optimal then child
        else begin
          lb.(j) <- lo;
          ub.(j) <- hi;
          if step mod 2 = 0 then lb.(j) <- Float.ceil x.(j)
          else ub.(j) <- Float.floor x.(j);
          solve ()
        end
      in
      Buffer.add_string steps
        (Printf.sprintf "%d:%s/%d/%s;" j
           (Simplex.status_to_string child.Simplex.status)
           child.Simplex.iterations
           (digest_floats child.Simplex.x));
      if child.Simplex.status = Simplex.Optimal then begin
        r := child;
        basis := child.Simplex.final_basis
      end
    end
  done;
  Printf.sprintf "steps=%s last=%s" (hex (Buffer.contents steps))
    (fingerprint !r ~ticks:(Budget.ticks budget) stats)

(* Column generation's continuation: the session solves the LP, takes
   new columns (copies of existing structurals with a better objective
   coefficient, so they price in) through [session_add_columns], and
   resumes the primal simplex. *)
let colgen_continuation sf =
  let session = Simplex.create_session sf in
  let budget = clock () and stats = Rstats.create () in
  let lb, ub = root_bounds sf in
  ignore (Simplex.session_solve session ~budget ~stats ~lb ~ub ());
  let a = sf.Lp.Std_form.a in
  let cols =
    List.filter_map
      (fun j ->
        if j >= sf.Lp.Std_form.n_struct then None
        else begin
          let entries = ref [] in
          Lina.Csc.iter_col a j (fun i v -> entries := (i, v) :: !entries);
          Some
            {
              Lp.Std_form.col_cost =
                (1.5 *. sf.Lp.Std_form.obj_factor *. sf.Lp.Std_form.cost.(j))
                +. 0.25;
              col_lb = 0.0;
              col_ub = 1.0;
              col_entries = List.rev !entries;
            }
        end)
      (List.init 12 (fun k -> 7 * k))
  in
  let sf' = Simplex.session_add_columns session ~budget ~stats cols in
  let lb', ub' = root_bounds sf' in
  let r = Simplex.session_solve session ~budget ~stats ~primal:true ~lb:lb' ~ub:ub' () in
  fingerprint r ~ticks:(Budget.ticks budget) stats

(* --- allocation gates ---------------------------------------------------- *)

(* A representation holds no factors until the first solve installs
   some, so creating one costs its O(m) buffers.  Measured on the cΣ root
   LP (m = 833): 19244 words, 23.1 per row (24.1 while a refactorization
   returned a new factor value; with the identity factors it used to
   build, 56.1). *)
let create_gate () =
  let m = (offline_root_sf ()).Lp.Std_form.n_rows in
  let words =
    Gc_probe.allocated_words (fun () ->
        ignore (Lp.Basis.create m : Lp.Basis.t))
  in
  if words > float_of_int (25 * m) then
    Alcotest.failf "Basis.create allocated %.0f words for m = %d (limit %d)"
      words m (25 * m)

(* Branch-and-bound's node solve: a warm dual re-solve from the parent's
   basis in a session that has solved before.  The install refactorizes
   in place, so its allocation is the result alone (x, duals, the y copy
   behind the reduced costs, the basis copy) — nothing per pivot, per
   priced column or per matrix entry.  Every child of the cΣ root LP's
   fractional integer columns (down and up, 3 to 54 pivots each) is
   solved twice; on the second pass, once the factor lists and the
   row-eta file have grown to their working size, each solve must stay
   within 3 words per column and row (measured: 5050 words = 2.05 per
   column and row, for every child: the result's 4921 and 129 words of
   small records) and the
   allocation may not grow with the pivot count.  While the install
   allocated new factors the same solves read 22747 words (9.25 per
   column and row, limit 10); before the kernels stopped boxing and
   closing over per-entry work, 64.6k–70.3k words (26.3–28.6), rising
   ~100 words per pivot. *)
let warm_resolve_gate () =
  let sf = offline_root_sf () in
  let size = sf.Lp.Std_form.n_rows + Lp.Std_form.n_total sf in
  let session = Simplex.create_session sf in
  let lb, ub = root_bounds sf in
  let root = Simplex.session_solve session ~lb ~ub () in
  let x = root.Simplex.x in
  let children = ref [] in
  Array.iteri
    (fun j is_int ->
      if is_int && Float.abs (x.(j) -. Float.round x.(j)) > 1e-6 then
        children := (j, true) :: (j, false) :: !children)
    sf.Lp.Std_form.integer;
  let solve (j, down) =
    let lb = Array.copy lb and ub = Array.copy ub in
    if down then ub.(j) <- Float.floor x.(j) else lb.(j) <- Float.ceil x.(j);
    let stats = Rstats.create () in
    let words =
      Gc_probe.allocated_words (fun () ->
          ignore
            (Simplex.session_solve session ~stats ?warm:root.Simplex.final_basis
               ~lb ~ub ()
              : Simplex.result))
    in
    (stats.Rstats.simplex_iterations, words)
  in
  List.iter (fun c -> ignore (solve c)) !children;
  let runs = List.map solve !children in
  let pivots = List.map fst runs and words = List.map snd runs in
  let lo l = List.fold_left min max_int l and hi l = List.fold_left max 0 l in
  let wlo = List.fold_left Float.min infinity words
  and whi = List.fold_left Float.max 0.0 words in
  if hi pivots < 10 * max 1 (lo pivots) then
    Alcotest.failf "pivot counts %d..%d span too little to test" (lo pivots)
      (hi pivots);
  if whi > float_of_int (3 * size) then
    Alcotest.failf "a warm re-solve allocated %.0f words (limit %d)" whi
      (3 * size);
  if whi -. wlo >= float_of_int (hi pivots - lo pivots) then
    Alcotest.failf
      "allocation grows with pivots: %.0f..%.0f words over %d..%d pivots" wlo
      whi (lo pivots) (hi pivots)

(* Words of a result's own arrays: x, the duals, the y copy behind the
   reduced costs and the final basis (headers included). *)
let result_words (r : Simplex.result) ~m =
  let arr n = n + 1 in
  arr (Array.length r.Simplex.x)
  + arr (Array.length r.Simplex.duals)
  + arr m
  +
  match r.Simplex.final_basis with
  | None -> 0
  | Some b ->
    arr (Array.length b.Simplex.basic) + arr (Array.length b.Simplex.stat)

(* A one-shot [Simplex.solve] of the cΣ root LP (833 rows, 1625
   columns) on a domain that has solved it before takes the state that
   solve released, whose buffers and factor storage already hold the
   LP: it allocates its result and a fixed number of small records
   (session, state and spare record copies, result, lazy reduced costs,
   span closure) — nothing that grows with the LP.  Limit: 1024 words
   beyond the result (measured: 157 beyond its 4921).  After the 7×8
   grid arc LP (1276 rows, 3241 columns) instead, the larger state's
   buffers hold the LP too, but U lists that are too short for the new
   bases regrow (measured: 11576 words beyond the result, 13.9 per row);
   that case is held to 16 words per row more.  While every solve built
   a new state the same call read 108k words. *)
let oneshot_gate () =
  let big = grid_arc_sf () and sf = offline_root_sf () in
  let m = sf.Lp.Std_form.n_rows in
  let measure ~before ~slack =
    ignore (Simplex.solve before : Simplex.result);
    let budget = clock () and stats = Rstats.create () in
    let r = ref None in
    let words =
      Gc_probe.allocated_words (fun () ->
          r := Some (Simplex.solve ~budget ~stats sf))
    in
    let r = Option.get !r in
    if r.Simplex.status <> Simplex.Optimal then Alcotest.fail "not optimal";
    let limit = result_words r ~m + 1024 + slack in
    if words > float_of_int limit then
      Alcotest.failf
        "a one-shot solve allocated %.0f words (result %d, limit %d)" words
        (result_words r ~m) limit
  in
  measure ~before:sf ~slack:0;
  measure ~before:big ~slack:(16 * m)

(* --- recycled solver states --------------------------------------------- *)

(* Runs [f] on a new domain, whose spare slot is empty: every state it
   builds is newly allocated. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Random LPs with ≤, ≥ and = rows (so cold starts need artificials),
   bounded columns and a few free ones; some are infeasible. *)
let random_form rng ~rows ~cols =
  let model = Lp.Model.create () in
  let vars =
    Array.init cols (fun _ ->
        if Workload.Rng.int rng 10 = 0 then
          Lp.Model.add_var model ~lb:(-5.0) ~ub:5.0
        else
          Lp.Model.add_var model ~lb:0.0
            ~ub:(Workload.Rng.float_range rng 0.5 4.0))
  in
  for _ = 1 to rows do
    let row =
      Array.to_list vars
      |> List.filter (fun _ -> Workload.Rng.int rng 3 = 0)
      |> List.map (fun x -> (x, Workload.Rng.float_range rng (-1.0) 2.0))
    in
    let rhs = Workload.Rng.float_range rng 0.5 6.0 in
    match Workload.Rng.int rng 6 with
    | 0 -> Lp.Model.add_ge model row (rhs /. 4.0)
    | 1 -> Lp.Model.add_eq model row (rhs /. 8.0)
    | _ -> Lp.Model.add_le model row rhs
  done;
  Lp.Model.set_objective model Lp.Model.Maximize
    (Array.to_list
       (Array.map
          (fun x -> (x, Workload.Rng.float_range rng (-1.0) 3.0))
          vars));
  Lp.Std_form.of_model model

(* Everything a caller sees of a solve, bit for bit. *)
let full_print (r : Simplex.result) ~ticks stats =
  Printf.sprintf "%s obj=%Ld duals=%s/%d %s"
    (fingerprint r ~ticks stats)
    (Int64.bits_of_float r.Simplex.objective)
    (digest_floats r.Simplex.duals) (Array.length r.Simplex.duals)
    (digest_floats (Lazy.force r.Simplex.reduced_costs))

(* What one LP of a sequence runs: a one-shot solve, then a session's
   cold solve, a warm re-solve from its basis with one column's bound
   tightened and a column-generation continuation (three copies of
   structural columns with better costs spliced in, primal re-solve),
   after which the session is released. *)
let lp_ops sf () =
  let one = clock () and s1 = Rstats.create () in
  let r1 = Simplex.solve ~budget:one ~stats:s1 sf in
  let session = Simplex.create_session sf in
  let two = clock () and s2 = Rstats.create () in
  let lb, ub = root_bounds sf in
  let r2 =
    Simplex.session_cold_solve session ~budget:two ~stats:s2 ~lb ~ub ()
  in
  let ub = Array.copy ub in
  ub.(0) <- Float.max lb.(0) (0.5 *. (lb.(0) +. ub.(0)));
  let r3 =
    Simplex.session_solve session ~budget:two ~stats:s2
      ?warm:r2.Simplex.final_basis ~lb ~ub ()
  in
  let copy j =
    let entries = ref [] in
    Lina.Csc.iter_col sf.Lp.Std_form.a j (fun i v ->
        entries := (i, v) :: !entries);
    {
      Lp.Std_form.col_cost =
        (2.0 *. sf.Lp.Std_form.obj_factor *. sf.Lp.Std_form.cost.(j)) +. 0.5;
      col_lb = 0.0;
      col_ub = 1.0;
      col_entries = List.rev !entries;
    }
  in
  let n = sf.Lp.Std_form.n_struct in
  let sf' =
    Simplex.session_add_columns session ~budget:two ~stats:s2
      (List.map copy [ 0; n / 2; n - 1 ])
  in
  let lb', ub' = root_bounds sf' in
  let r4 =
    Simplex.session_solve session ~budget:two ~stats:s2 ~primal:true ~lb:lb'
      ~ub:ub' ()
  in
  Simplex.session_release session;
  [
    full_print r1 ~ticks:(Budget.ticks one) s1;
    full_print r2 ~ticks:0 (Rstats.create ());
    full_print r3 ~ticks:0 (Rstats.create ());
    full_print r4 ~ticks:(Budget.ticks two) s2;
  ]

let recycle_property =
  Seeded.to_alcotest ~seed:2901
    (QCheck2.Test.make
       ~name:"LPs of growing and shrinking size solve as on fresh states"
       ~count:12
       QCheck2.Gen.(int_bound 100_000)
       (fun seed ->
         let rng = Workload.Rng.create (Int64.of_int (seed + 29)) in
         let forms =
           List.init 6 (fun _ ->
               let rows = 2 + Workload.Rng.int rng 40 in
               random_form rng ~rows ~cols:(2 + Workload.Rng.int rng 50))
         in
         (* One domain solves the whole sequence, each LP taking the
            states the previous ones released; each reference runs on a
            domain of its own, on new states. *)
         let recycled =
           on_fresh_domain (fun () -> List.map (fun sf -> lp_ops sf ()) forms)
         in
         let fresh = List.map (fun sf -> on_fresh_domain (lp_ops sf)) forms in
         List.for_all2 ( = ) recycled fresh))

(* The contended cΣ search of [mip.parallel] at jobs 1 and 2, run after
   other LPs have left spares of other sizes behind, and twice in a row
   (the second search takes the states the first released): every run
   must print exactly what a search on new states prints. *)
let bnb_recycle_test () =
  let rng = Workload.Rng.create 5L in
  let inst =
    Tvnep.Scenario.generate rng
      { Tvnep.Scenario.scaled with num_requests = 5; flexibility = 1.0 }
  in
  let sf = std_form_of inst in
  let search jobs () =
    let budget = Budget.create ~deterministic:2e9 ~time_limit:0.05 () in
    let stats = Rstats.create () in
    let params = { Mip.Branch_bound.default_params with jobs } in
    let r = Mip.Branch_bound.solve_form ~params ~budget ~stats sf in
    Printf.sprintf "%s obj=%s bound=%Ld nodes=%d it=%d ticks=%d %s"
      (Mip.Branch_bound.status_to_string r.Mip.Branch_bound.status)
      (match r.Mip.Branch_bound.objective with
      | Some o -> Int64.to_string (Int64.bits_of_float o)
      | None -> "none")
      (Int64.bits_of_float r.Mip.Branch_bound.best_bound)
      r.Mip.Branch_bound.nodes r.Mip.Branch_bound.lp_iterations
      (Budget.ticks budget) (Runtime.Stats.to_string stats)
  in
  let reference = on_fresh_domain (search 1) in
  let runs =
    on_fresh_domain (fun () ->
        ignore (Simplex.solve (grid_arc_sf ()) : Simplex.result);
        let a = search 1 () in
        let b = search 1 () in
        ignore (Simplex.solve (offline_root_sf ()) : Simplex.result);
        let c = search 2 () in
        let d = search 2 () in
        [ a; b; c; d ])
  in
  List.iteri
    (fun k got ->
      if got <> reference then
        Alcotest.failf "run %d differs from the search on new states" k)
    runs

let pinned name expected compute =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (compute ()))

let suite =
  [
    ( "lp.kernel.fingerprint",
      [
        pinned "cold two-phase cSigma root LP"
          "optimal it=159 ticks=658203 x=f764686750f42ccd7b37b3b7cdecbea7 basis=d52c22c67a45e7bcc5cb54bcd7ee459c simplex_iterations=159,refactorizations=1,lp_solves=1,ftran_nnz=8079,btran_nnz=75,basis_updates=161,spike_fill=2071,refactor_fill=1,pricing_hits=140,pricing_sweeps=19"
          (fun () -> cold_solve (offline_root_sf ()));
        pinned "arc LP of a 7x8 grid instance"
          "optimal it=299 ticks=1926874 x=d803fa251a699a98d75cf3a02a646871 basis=455edc375a2d52fd6b371c20b78ec8eb simplex_iterations=299,refactorizations=1,lp_solves=1,ftran_nnz=23531,btran_nnz=281,basis_updates=298,spike_fill=3142,refactor_fill=1,pricing_hits=257,pricing_sweeps=42"
          (fun () -> cold_solve (grid_arc_sf ()));
        pinned "warm dual re-solve chain"
          "steps=f8a178acf42bf4aa5488329905aef889 last=optimal it=133 ticks=1901657 x=b69005a23776df21d538060a5fb15f9f basis=cce5552a3c9e98c7716d64235ad7cf2b simplex_iterations=433,refactorizations=6,lp_solves=11,ftran_nnz=30737,btran_nnz=9757,basis_updates=417,spike_fill=7097,refactor_fill=1,pricing_hits=140,pricing_sweeps=27"
          (fun () -> warm_chain (offline_root_sf ()));
        pinned "colgen primal continuation"
          "optimal it=90 ticks=1121172 x=8361416dfff21382f018f5ac7e842ee2 basis=63124d39b34b6b71f97f10ed76d01db3 simplex_iterations=249,refactorizations=1,lp_solves=2,ftran_nnz=24625,btran_nnz=150,basis_updates=240,spike_fill=3442,refactor_fill=1,pricing_hits=208,pricing_sweeps=41"
          (fun () -> colgen_continuation (offline_root_sf ()));
      ] );
    ( "lp.kernel.alloc",
      [
        Alcotest.test_case "Basis.create allocates O(m)" `Quick create_gate;
        Alcotest.test_case "a warm re-solve allocates nothing per pivot"
          `Quick warm_resolve_gate;
        Alcotest.test_case "a one-shot solve allocates only its result"
          `Quick oneshot_gate;
      ] );
    ( "lp.recycle",
      [
        recycle_property;
        Alcotest.test_case
          "B&B at jobs 1 and 2 byte-identical on recycled states" `Quick
          bnb_recycle_test;
      ] );
  ]
