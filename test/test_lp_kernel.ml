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
   LP (m = 833): 20065 words, 24.1 per row; with the identity factors it
   used to build, 46742 (56.1). *)
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
   basis in a session that has solved before.  Its allocation is the
   install's factors and the result (x, duals, basis copy), O(n_total + m)
   — nothing per pivot, per priced column or per matrix entry.  Every
   child of the cΣ root LP's fractional integer columns (down and up,
   3 to 54 pivots each) is solved twice; on the second pass, once the
   factor lists and the row-eta file have grown to their working size,
   each solve must stay within 10 words per column and row (measured:
   22747 words = 9.25 per column and row, for every child) and the
   allocation may not grow with the pivot count.  Before the kernels
   stopped boxing and closing over per-entry work the same solves read
   64.6k–70.3k words (26.3–28.6), rising ~100 words per pivot. *)
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
  if whi > float_of_int (10 * size) then
    Alcotest.failf "a warm re-solve allocated %.0f words (limit %d)" whi
      (10 * size);
  if whi -. wlo >= float_of_int (hi pivots - lo pivots) then
    Alcotest.failf
      "allocation grows with pivots: %.0f..%.0f words over %d..%d pivots" wlo
      whi (lo pivots) (hi pivots)

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
      ] );
  ]
