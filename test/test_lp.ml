(* Unit and property tests for the LP modeling layer and the simplex. *)

let feq = Alcotest.(check (float 1e-6))

let v (x : Lp.Model.var) = (x, 1.0)

let model_tests =
  [
    Alcotest.test_case "bounds and kinds" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~lb:(-1.0) ~ub:2.0 in
        let b = Lp.Model.add_var m ~kind:Lp.Model.Binary in
        feq "lb" (-1.0) (Lp.Model.var_lb m x);
        feq "binary ub" 1.0 (Lp.Model.var_ub m b);
        Alcotest.(check bool) "binary is integer" true
          (Lp.Std_form.of_model m).Lp.Std_form.integer.((b :> int));
        Lp.Model.fix_var m x 0.5;
        feq "fixed" 0.5 (Lp.Model.var_ub m x));
    Alcotest.test_case "unknown variable rejected" `Quick (fun () ->
        let other = Lp.Model.create () in
        let far = List.init 5 (fun _ -> Lp.Model.add_var other) in
        let m = Lp.Model.create () in
        Alcotest.check_raises "raise"
          (Invalid_argument "Model: term uses unknown var 4") (fun () ->
            Lp.Model.add_le m [ v (List.nth far 4) ] 1.0));
    Alcotest.test_case "crossed range rejected" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m in
        Alcotest.check_raises "raise" (Invalid_argument "Model.add_range: lo > hi")
          (fun () -> Lp.Model.add_range m ~lo:2.0 ~hi:1.0 [ v x ]));
  ]

(* The canonical form [Model] stores a row in, one behaviour per case. *)
let row_terms m i =
  List.map (fun ((x : Lp.Model.var), c) -> ((x :> int), c)) (Lp.Model.row_terms m i)

let terms = Alcotest.(list (pair int (float 0.0)))

let canonical_row_tests =
  let vars n =
    let m = Lp.Model.create () in
    (m, Array.init n (fun _ -> Lp.Model.add_var m))
  in
  [
    Alcotest.test_case "repeated vars summed" `Quick (fun () ->
        (* In the order given, (ε + ε) + 1 is the float after 1; any
           other order rounds back to 1, and keeping one term gives ε. *)
        let m, x = vars 1 in
        let eps = 0.375 *. epsilon_float in
        Lp.Model.add_le m [ (x.(0), eps); (x.(0), eps); (x.(0), 1.0) ] 4.0;
        match row_terms m 0 with
        | [ (0, c) ] ->
          Alcotest.(check int64) "summed left to right"
            (Int64.bits_of_float (Float.succ 1.0)) (Int64.bits_of_float c)
        | _ -> Alcotest.fail "expected one term");
    Alcotest.test_case "cancelled term dropped" `Quick (fun () ->
        let m, x = vars 3 in
        Lp.Model.add_le m
          [ (x.(1), 2.0); (x.(0), 1.0); (x.(2), 1e-12); (x.(0), -1.0) ]
          4.0;
        Alcotest.check terms "only the nonzero term" [ (1, 2.0) ] (row_terms m 0));
    Alcotest.test_case "terms sorted ascending" `Quick (fun () ->
        let m, x = vars 3 in
        Lp.Model.add_eq m [ (x.(2), 3.0); (x.(0), 1.0); (x.(1), 2.0) ] 1.0;
        Alcotest.check terms "by variable" [ (0, 1.0); (1, 2.0); (2, 3.0) ]
          (row_terms m 0));
    Alcotest.test_case "offset is obj_const" `Quick (fun () ->
        let m, x = vars 1 in
        Lp.Model.set_objective m Lp.Model.Maximize ~offset:2.5 [ (x.(0), 1.0) ];
        feq "obj_const" 2.5 (Lp.Std_form.of_model m).Lp.Std_form.obj_const);
  ]

(* The standard form's matrix as it was assembled before [of_model]
   transposed the model's row store itself: every row's canonical terms,
   then the row's logical −1, replayed into the [Csc_builder] oracle. *)
let builder_matrix m =
  let n = Lp.Model.num_vars m and nr = Lp.Model.num_constrs m in
  let b = Csc_builder.create ~rows:nr ~cols:(n + nr) in
  for i = 0 to nr - 1 do
    List.iter
      (fun ((x : Lp.Model.var), c) -> Csc_builder.add b ~row:i ~col:(x :> int) c)
      (Lp.Model.row_terms m i);
    Csc_builder.add b ~row:i ~col:(n + i) (-1.0)
  done;
  Csc_builder.finish b

let same_matrix (a : Lina.Csc.t) (b : Lina.Csc.t) =
  let bits v = Array.map Int64.bits_of_float v in
  a.Lina.Csc.rows = b.Lina.Csc.rows
  && a.Lina.Csc.cols = b.Lina.Csc.cols
  && a.Lina.Csc.col_ptr = b.Lina.Csc.col_ptr
  && a.Lina.Csc.row_idx = b.Lina.Csc.row_idx
  && bits a.Lina.Csc.value = bits b.Lina.Csc.value

(* A random model: up to 40 variables and 30 rows of unsorted terms with
   repeats, exact and tiny zeros, sums that cancel, and empty rows. *)
let random_model rng =
  let module R = Workload.Rng in
  let m = Lp.Model.create () in
  let n = R.int rng 41 in
  let x = Array.init n (fun _ -> Lp.Model.add_var m ~lb:(-1.0) ~ub:3.0) in
  let coefs = [| 1.0; -1.0; 0.5; 1e-12; 0.0; 0.1; 0.2; 0.3; -0.3; 2.5 |] in
  for _ = 1 to (if n = 0 then 0 else R.int rng 31) do
    let terms =
      List.init (R.int rng 12) (fun _ -> (x.(R.int rng n), coefs.(R.int rng 10)))
    in
    match R.int rng 3 with
    | 0 -> Lp.Model.add_le m terms 4.0
    | 1 -> Lp.Model.add_ge m terms (-1.0)
    | _ -> Lp.Model.add_range m ~lo:(-2.0) ~hi:2.0 terms
  done;
  if n > 0 then
    Lp.Model.set_objective m Lp.Model.Maximize [ (x.(R.int rng n), 1.0) ];
  m

let std_form_tests =
  [
    Seeded.to_alcotest ~seed:1601
      (QCheck2.Test.make ~name:"of_model's matrix is the Builder's, bit for bit"
         ~count:200 QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           (* Three models in a row, so each is built after another one
              was compiled. *)
           let rng = Workload.Rng.create (Int64.of_int (seed + 7)) in
           List.for_all
             (fun _ ->
               let m = random_model rng in
               same_matrix (Lp.Std_form.of_model m).Lp.Std_form.a
                 (builder_matrix m))
             [ 1; 2; 3 ]));
  ]

(* Everything [Std_form] keeps, floats as bits. *)
let form_bits (sf : Lp.Std_form.t) =
  let bits v = Array.map Int64.bits_of_float v in
  ( (sf.Lp.Std_form.n_struct, sf.Lp.Std_form.n_rows),
    (sf.Lp.Std_form.a.Lina.Csc.col_ptr, sf.Lp.Std_form.a.Lina.Csc.row_idx,
     bits sf.Lp.Std_form.a.Lina.Csc.value),
    (bits sf.Lp.Std_form.cost, bits sf.Lp.Std_form.lb, bits sf.Lp.Std_form.ub),
    ( Int64.bits_of_float sf.Lp.Std_form.obj_const,
      Int64.bits_of_float sf.Lp.Std_form.obj_factor,
      sf.Lp.Std_form.integer ) )

(* A model far larger than [random_model]'s, its arrays full of values
   the next model must not see. *)
let large_model () =
  let m = Lp.Model.create () in
  let x =
    Array.init 300 (fun i -> Lp.Model.add_var m ~lb:(-7.0) ~ub:(float_of_int i))
  in
  for i = 0 to 399 do
    Lp.Model.add_range m ~lo:(-3.0) ~hi:9.5
      (List.init 9 (fun t ->
           (x.(((i * 7) + (t * 31)) mod 300), 0.25 +. float_of_int t)))
  done;
  Lp.Model.set_objective m Lp.Model.Minimize [ (x.(3), 2.0) ];
  m

let small_model () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~ub:5.0 in
  Lp.Model.add_le m [ (x, 3.0) ] 1.0;
  m

(* [f ()] on a domain of its own, whose spare store starts empty. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let recycle_tests =
  [
    Seeded.to_alcotest ~seed:1602
      (QCheck2.Test.make
         ~name:"a model on recycled arrays compiles as on a fresh domain"
         ~count:40 QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let form () =
             form_bits
               (Lp.Std_form.of_model
                  (random_model (Workload.Rng.create (Int64.of_int seed))))
           in
           let after prior =
             on_fresh_domain (fun () ->
                 Lp.Model.release (prior ());
                 form ())
           in
           let want = on_fresh_domain form in
           after large_model = want && after small_model = want));
    Alcotest.test_case "a released model raises on every use" `Quick
      (fun () ->
        on_fresh_domain (fun () ->
            let m = Lp.Model.create () in
            let x = Lp.Model.add_var m ~ub:2.0 in
            Lp.Model.add_le m [ (x, 1.0) ] 1.0;
            Lp.Model.set_objective m Lp.Model.Maximize [ (x, 1.0) ];
            Lp.Model.release m;
            let released name f =
              Alcotest.check_raises name
                (Invalid_argument "Model: released model") (fun () ->
                  ignore (f ()))
            in
            released "num_vars" (fun () -> Lp.Model.num_vars m);
            released "num_constrs" (fun () -> Lp.Model.num_constrs m);
            released "var_lb" (fun () -> Lp.Model.var_lb m x);
            released "var_ub" (fun () -> Lp.Model.var_ub m x);
            released "var_kind" (fun () -> Lp.Model.var_kind m x);
            released "var_of_id" (fun () -> Lp.Model.var_of_id m 0);
            released "row_terms" (fun () -> Lp.Model.row_terms m 0);
            released "row_lo" (fun () -> Lp.Model.row_lo m 0);
            released "row_store" (fun () -> Lp.Model.row_store m);
            released "objective" (fun () -> Lp.Model.objective m);
            released "of_model" (fun () -> Lp.Std_form.of_model m);
            released "add_var" (fun () -> Lp.Model.add_var m);
            released "add_le" (fun () -> Lp.Model.add_le m [] 1.0);
            released "set_objective" (fun () ->
                Lp.Model.set_objective m Lp.Model.Minimize []);
            released "fix_var" (fun () -> Lp.Model.fix_var m x 1.0);
            released "release" (fun () -> Lp.Model.release m);
            (* The next model starts empty on the released arrays. *)
            let m' = Lp.Model.create () in
            Alcotest.(check int) "next model empty" 0 (Lp.Model.num_vars m')));
  ]

let status = Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Lp.Simplex.status_to_string s))
    ( = )

let simplex_tests =
  [
    Alcotest.test_case "textbook maximization" `Quick (fun () ->
        (* max 3x+5y st x<=4, 2y<=12, 3x+2y<=18 -> (2,6), obj 36 *)
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m and y = Lp.Model.add_var m in
        Lp.Model.add_le m [ v x ] 4.0;
        Lp.Model.add_le m [ (y, 2.0) ] 12.0;
        Lp.Model.add_le m [ (x, 3.0); (y, 2.0) ] 18.0;
        Lp.Model.set_objective m Lp.Model.Maximize [ (x, 3.0); (y, 5.0) ];
        let r = Lp.Simplex.solve_model m in
        Alcotest.check status "status" Lp.Simplex.Optimal r.Lp.Simplex.status;
        feq "obj" 36.0 r.Lp.Simplex.objective;
        feq "x" 2.0 r.Lp.Simplex.x.(0);
        feq "y" 6.0 r.Lp.Simplex.x.(1));
    Alcotest.test_case "equality rows and negative bounds" `Quick (fun () ->
        (* min x + y st x + y = 1, x - y = 0.2, x,y free -> (0.6, 0.4) *)
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~lb:neg_infinity in
        let y = Lp.Model.add_var m ~lb:neg_infinity in
        Lp.Model.add_eq m [ v x; v y ] 1.0;
        Lp.Model.add_eq m [ v x; (y, -1.0) ] 0.2;
        Lp.Model.set_objective m Lp.Model.Minimize [ v x; v y ];
        let r = Lp.Simplex.solve_model m in
        Alcotest.check status "status" Lp.Simplex.Optimal r.Lp.Simplex.status;
        feq "x" 0.6 r.Lp.Simplex.x.(0);
        feq "y" 0.4 r.Lp.Simplex.x.(1));
    Alcotest.test_case "range row" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m in
        Lp.Model.add_range m ~lo:2.0 ~hi:3.0 [ v x ];
        Lp.Model.set_objective m Lp.Model.Minimize [ v x ];
        let r = Lp.Simplex.solve_model m in
        feq "min at range lo" 2.0 r.Lp.Simplex.objective);
    Alcotest.test_case "infeasible" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~ub:1.0 in
        Lp.Model.add_ge m [ v x ] 2.0;
        Lp.Model.set_objective m Lp.Model.Minimize [ v x ];
        let r = Lp.Simplex.solve_model m in
        Alcotest.check status "status" Lp.Simplex.Infeasible r.Lp.Simplex.status);
    Alcotest.test_case "unbounded" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m in
        Lp.Model.set_objective m Lp.Model.Maximize [ v x ];
        let r = Lp.Simplex.solve_model m in
        Alcotest.check status "status" Lp.Simplex.Unbounded r.Lp.Simplex.status);
    Alcotest.test_case "objective constant offset" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~ub:1.0 in
        Lp.Model.set_objective m Lp.Model.Maximize ~offset:10.0 [ v x ];
        let r = Lp.Simplex.solve_model m in
        feq "obj includes offset" 11.0 r.Lp.Simplex.objective);
    Alcotest.test_case "degenerate LP terminates" `Quick (fun () ->
        (* Many redundant constraints through the same vertex. *)
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m and y = Lp.Model.add_var m in
        for _ = 1 to 12 do
          Lp.Model.add_le m [ v x; v y ] 1.0
        done;
        Lp.Model.add_le m [ v x; (y, -1.0) ] 0.0;
        Lp.Model.set_objective m Lp.Model.Maximize [ v x; v y ];
        let r = Lp.Simplex.solve_model m in
        Alcotest.check status "status" Lp.Simplex.Optimal r.Lp.Simplex.status;
        feq "obj" 1.0 r.Lp.Simplex.objective);
    Alcotest.test_case "duals of binding rows" `Quick (fun () ->
        (* max 3x+2y st x+y<=4, x+3y<=6: opt at (4,0); dual of row 1 = 3,
           row 2 slack -> dual 0. *)
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m and y = Lp.Model.add_var m in
        Lp.Model.add_le m [ v x; v y ] 4.0;
        Lp.Model.add_le m [ v x; (y, 3.0) ] 6.0;
        Lp.Model.set_objective m Lp.Model.Maximize [ (x, 3.0); (y, 2.0) ];
        let r = Lp.Simplex.solve_model m in
        feq "dual row 1" 3.0 r.Lp.Simplex.duals.(0);
        feq "dual row 2" 0.0 r.Lp.Simplex.duals.(1));
    Alcotest.test_case "bound flip path" `Quick (fun () ->
        (* Boxed variables where optimum sits at upper bounds. *)
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~lb:0.0 ~ub:1.0 in
        let y = Lp.Model.add_var m ~lb:0.0 ~ub:1.0 in
        Lp.Model.add_le m [ v x; v y ] 10.0;
        Lp.Model.set_objective m Lp.Model.Maximize [ v x; v y ];
        let r = Lp.Simplex.solve_model m in
        feq "obj" 2.0 r.Lp.Simplex.objective);
  ]

(* Random LPs: simplex optimum must dominate random feasible points, and
   the primal/dual objectives must coincide (strong duality). *)
let random_lp rng ~n ~m_rows =
  let model = Lp.Model.create () in
  let vars =
    Array.init n (fun _ ->
        Lp.Model.add_var model ~lb:0.0
          ~ub:(Workload.Rng.float_range rng 0.5 4.0))
  in
  for _ = 1 to m_rows do
    let row =
      Array.to_list
        (Array.map (fun x -> (x, Workload.Rng.float_range rng 0.0 2.0)) vars)
    in
    Lp.Model.add_le model row (Workload.Rng.float_range rng 1.0 6.0)
  done;
  let obj =
    Array.to_list
      (Array.map (fun x -> (x, Workload.Rng.float_range rng 0.0 3.0)) vars)
  in
  Lp.Model.set_objective model Lp.Model.Maximize obj;
  (model, vars, obj)

let simplex_properties =
  [
    Seeded.to_alcotest ~seed:2101
      (QCheck2.Test.make ~name:"optimum dominates random feasible points"
         ~count:40
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 3)) in
           let n = 1 + Workload.Rng.int rng 6 in
           let m_rows = 1 + Workload.Rng.int rng 6 in
           let model, vars, obj = random_lp rng ~n ~m_rows in
           let r = Lp.Simplex.solve_model model in
           if r.Lp.Simplex.status <> Lp.Simplex.Optimal then false
           else begin
             (* Sample feasible points by scaling random points down until
                all rows hold. *)
             let sf = Lp.Std_form.of_model model in
             let ok = ref true in
             for _ = 1 to 10 do
               let x =
                 Array.map
                   (fun (v : Lp.Model.var) ->
                     Workload.Rng.float_range rng 0.0
                       (Lp.Model.var_ub model v))
                   vars
               in
               let rec shrink x k =
                 if k = 0 then None
                 else if Lp.Std_form.is_feasible_point sf x then Some x
                 else
                   shrink (Array.map (fun v -> v /. 2.0) x) (k - 1)
               in
               match shrink x 20 with
               | None -> ()
               | Some x ->
                 let value =
                   List.fold_left
                     (fun acc ((v : Lp.Model.var), c) -> acc +. (c *. x.((v :> int))))
                     0.0 obj
                 in
                 if value > r.Lp.Simplex.objective +. 1e-6 then ok := false
             done;
             !ok
           end));
    Seeded.to_alcotest ~seed:2102
      (QCheck2.Test.make ~name:"strong duality on random LPs" ~count:40
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 1234)) in
           let n = 1 + Workload.Rng.int rng 5 in
           let m_rows = 1 + Workload.Rng.int rng 5 in
           let model, vars, _ = random_lp rng ~n ~m_rows in
           let r = Lp.Simplex.solve_model model in
           if r.Lp.Simplex.status <> Lp.Simplex.Optimal then true
           else begin
             (* max c x st Ax <= b, 0 <= x <= u.  Dual value:
                sum_i y_i b_i + sum_j max(0, c_j - y^T A_j) u_j with y the
                row duals (y_i <= 0 in our d(user)/d(rhs) convention means
                ... we reconstruct via reduced costs instead):
                obj = sum_j x_j rc... simpler: complementary check via
                objective equality with dual form below. *)
             let sf = Lp.Std_form.of_model model in
             let row_hi i = sf.Lp.Std_form.ub.(sf.Lp.Std_form.n_struct + i) in
             let dual_value =
               List.fold_left ( +. ) 0.0
                 (List.init sf.Lp.Std_form.n_rows (fun i ->
                      r.Lp.Simplex.duals.(i) *. row_hi i))
               +. Array.fold_left ( +. ) 0.0
                    (Array.mapi
                       (fun j (x : Lp.Model.var) ->
                         let rc =
                           (Lazy.force r.Lp.Simplex.reduced_costs).(j)
                         in
                         ignore x;
                         if rc > 0.0 then rc *. sf.Lp.Std_form.ub.(j) else 0.0)
                       vars)
             in
             Float.abs (dual_value -. r.Lp.Simplex.objective)
             <= 1e-5 *. Float.max 1.0 (Float.abs r.Lp.Simplex.objective)
           end));
  ]

let session_tests =
  [
    Alcotest.test_case "session re-solve matches cold solve" `Quick (fun () ->
        let rng = Workload.Rng.create 99L in
        let model, _, _ = random_lp rng ~n:6 ~m_rows:5 in
        let sf = Lp.Std_form.of_model model in
        let n = Lp.Std_form.n_total sf in
        let sess = Lp.Simplex.create_session sf in
        let lb = Array.sub sf.Lp.Std_form.lb 0 n in
        let ub = Array.copy (Array.sub sf.Lp.Std_form.ub 0 n) in
        let r1 = Lp.Simplex.session_solve sess ~lb ~ub () in
        let cold1 = Lp.Simplex.solve sf in
        feq "root equal" cold1.Lp.Simplex.objective r1.Lp.Simplex.objective;
        (* tighten a variable bound, compare against cold solve *)
        ub.(0) <- ub.(0) /. 2.0;
        let r2 = Lp.Simplex.session_solve sess ~lb ~ub () in
        let cold2 = Lp.Simplex.solve ~lb ~ub sf in
        Alcotest.check status "same status" cold2.Lp.Simplex.status
          r2.Lp.Simplex.status;
        if r2.Lp.Simplex.status = Lp.Simplex.Optimal then
          feq "same objective" cold2.Lp.Simplex.objective
            r2.Lp.Simplex.objective;
        (* relax it again *)
        ub.(0) <- ub.(0) *. 4.0;
        let r3 = Lp.Simplex.session_solve sess ~lb ~ub () in
        let cold3 = Lp.Simplex.solve ~lb ~ub sf in
        feq "relaxed objective" cold3.Lp.Simplex.objective
          r3.Lp.Simplex.objective);
    Alcotest.test_case "session detects infeasible bounds" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~ub:2.0 in
        Lp.Model.add_ge m [ v x ] 1.0;
        Lp.Model.set_objective m Lp.Model.Minimize [ v x ];
        let sf = Lp.Std_form.of_model m in
        let n = Lp.Std_form.n_total sf in
        let sess = Lp.Simplex.create_session sf in
        let lb = Array.sub sf.Lp.Std_form.lb 0 n in
        let ub = Array.copy (Array.sub sf.Lp.Std_form.ub 0 n) in
        ignore (Lp.Simplex.session_solve sess ~lb ~ub ());
        ub.(0) <- 0.5;  (* now x <= 0.5 conflicts with row x >= 1 *)
        let r = Lp.Simplex.session_solve sess ~lb ~ub () in
        Alcotest.check status "infeasible" Lp.Simplex.Infeasible
          r.Lp.Simplex.status);
  ]

(* Session vs cold equivalence across many random bound changes. *)
let session_properties =
  [
    Seeded.to_alcotest ~seed:2103
      (QCheck2.Test.make ~name:"session equals cold under random rebounds"
         ~count:25
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 31)) in
           let model, _, _ = random_lp rng ~n:5 ~m_rows:4 in
           let sf = Lp.Std_form.of_model model in
           let n = Lp.Std_form.n_total sf in
           let sess = Lp.Simplex.create_session sf in
           let lb = Array.copy (Array.sub sf.Lp.Std_form.lb 0 n) in
           let ub = Array.copy (Array.sub sf.Lp.Std_form.ub 0 n) in
           let ok = ref true in
           for _ = 1 to 6 do
             (* random structural bound tweak *)
             let j = Workload.Rng.int rng sf.Lp.Std_form.n_struct in
             if Workload.Rng.bool rng then
               ub.(j) <- Workload.Rng.float_range rng 0.0 3.0
             else ub.(j) <- sf.Lp.Std_form.ub.(j);
             if ub.(j) < lb.(j) then ub.(j) <- lb.(j);
             let rs = Lp.Simplex.session_solve sess ~lb ~ub () in
             let rc = Lp.Simplex.solve ~lb ~ub sf in
             if rs.Lp.Simplex.status <> rc.Lp.Simplex.status then ok := false
             else if
               rs.Lp.Simplex.status = Lp.Simplex.Optimal
               && Float.abs (rs.Lp.Simplex.objective -. rc.Lp.Simplex.objective)
                  > 1e-5 *. Float.max 1.0 (Float.abs rc.Lp.Simplex.objective)
             then ok := false
           done;
           !ok));
  ]

(* The Forrest–Tomlin-updated basis: its solves must reproduce their
   right-hand sides through the ground-truth basis and agree with a dense
   LU of it ([Dense_lu]). *)

let basis_tests =
  [
    Alcotest.test_case
      "FTRAN/BTRAN round-trip through Forrest–Tomlin updates" `Quick
      (fun () ->
        let rng = Workload.Rng.create 2025L in
        let m = 25 in
        (* Random sparse, diagonally dominant starting basis; [cols] is
           kept as the ground-truth B so we can multiply solves back. *)
        let cols =
          Array.init m (fun pos ->
              let c =
                Array.init m (fun _ ->
                    if Workload.Rng.int rng 100 < 25 then
                      Workload.Rng.float_range rng (-1.0) 1.0
                    else 0.0)
              in
              c.(pos) <- c.(pos) +. 4.0;
              c)
        in
        let b_rows () =
          Array.init m (fun i -> Array.init m (fun pos -> cols.(pos).(i)))
        in
        let rep = Lp.Basis.create m in
        let factorize () =
          Lp.Basis.factorize rep
            (Lina.Csc.of_dense (b_rows ()))
            ~unit_sign:[||] (Array.init m Fun.id)
        in
        factorize ();
        let mul_b x =
          let y = Array.make m 0.0 in
          Array.iteri
            (fun pos c ->
              let xp = x.(pos) in
              if xp <> 0.0 then
                Array.iteri (fun i v -> y.(i) <- y.(i) +. (v *. xp)) c)
            cols;
          y
        in
        let mul_bt y =
          Array.map
            (fun c ->
              let acc = ref 0.0 in
              Array.iteri (fun i v -> acc := !acc +. (v *. y.(i))) c;
              !acc)
            cols
        in
        (* Each solve must reproduce its right-hand side through the
           ground-truth B and agree with a dense LU of B (of Bᵀ for
           BTRAN), which follows every pivot. *)
        let check_roundtrip tag =
          let solve_checked name solve rows rhs =
            let x = Array.copy rhs in
            ignore (solve rep x : int);
            Array.iteri
              (fun i v ->
                Alcotest.(check (float 1e-6))
                  (Printf.sprintf "%s: %s agrees with dense LU" tag name)
                  v x.(i))
              (Dense_lu.solve (Dense_lu.factorize rows) rhs);
            x
          in
          let b =
            Array.init m (fun _ -> Workload.Rng.float_range rng (-2.0) 2.0)
          in
          let x = solve_checked "ftran" Lp.Basis.ftran_in_place (b_rows ()) b in
          Array.iteri
            (fun i v ->
              Alcotest.(check (float 1e-5)) (tag ^ ": B.(ftran b) = b")
                b.(i) v)
            (mul_b x);
          let c =
            Array.init m (fun _ -> Workload.Rng.float_range rng (-2.0) 2.0)
          in
          let y = solve_checked "btran" Lp.Basis.btran_in_place cols c in
          Array.iteri
            (fun pos v ->
              Alcotest.(check (float 1e-5)) (tag ^ ": Bt.(btran c) = c")
                c.(pos) v)
            (mul_bt y)
        in
        check_roundtrip "fresh factorization";
        (* 40 pivots absorbed in place; a rejected update mirrors the
           simplex policy — refactorize from the already-swapped basis. *)
        let w = Array.make m 0.0 in
        let pivots = ref 0 and rejections = ref 0 in
        while !pivots < 40 do
          let a =
            Array.init m (fun _ ->
                if Workload.Rng.int rng 100 < 30 then
                  Workload.Rng.float_range rng (-2.0) 2.0
                else 0.0)
          in
          Array.fill w 0 m 0.0;
          ignore
            (Lp.Basis.ftran_col rep
               (Lina.Csc.of_dense (Array.map (fun v -> [| v |]) a))
               ~unit_sign:[||] 0 w
              : int);
          let r = Workload.Rng.int rng m in
          if Float.abs w.(r) > 1e-3 then begin
            cols.(r) <- a;
            if Lp.Basis.update rep ~r then begin
              Alcotest.(check bool) "positive update work" true
                (Lp.Basis.update_work rep > 0);
              Alcotest.(check bool) "non-negative fill" true
                (Lp.Basis.update_added rep >= 0)
            end
            else begin
              incr rejections;
              factorize ()
            end;
            incr pivots;
            if !pivots mod 8 = 0 then
              check_roundtrip (Printf.sprintf "after %d pivots" !pivots)
          end
        done;
        (* A refactorization (after a rejection) resets the update count,
           so only the rejection-free run pins it exactly. *)
        if !rejections = 0 then
          Alcotest.(check int) "all 40 pivots absorbed as updates" 40
            (Lp.Basis.update_count rep);
        Alcotest.(check bool) "fill ratio meaningful" true
          (Lp.Basis.fill_ratio rep > 0.0);
        check_roundtrip "after 40 pivots");
    Alcotest.test_case "update telemetry reaches solve stats" `Quick
      (fun () ->
        (* A mid-sized LP reports its Forrest–Tomlin updates — the
           counters the bench telemetry is built on. *)
        let rng = Workload.Rng.create 404L in
        let model, _, _ = random_lp rng ~n:8 ~m_rows:8 in
        let stats = Runtime.Stats.create () in
        let r = Lp.Simplex.solve ~stats (Lp.Std_form.of_model model) in
        Alcotest.(check bool) "solved" true
          (r.Lp.Simplex.status = Lp.Simplex.Optimal);
        Alcotest.(check bool) "update form counts updates" true
          (stats.Runtime.Stats.basis_updates > 0));
  ]

let basis_properties =
  let agree name count seed_salt params_a params_b =
    Seeded.to_alcotest ~seed:seed_salt
      (QCheck2.Test.make ~name ~count
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + seed_salt)) in
           let n = 1 + Workload.Rng.int rng 7 in
           let m_rows = 1 + Workload.Rng.int rng 7 in
           let model, _, _ = random_lp rng ~n ~m_rows in
           let sf = Lp.Std_form.of_model model in
           let ra = Lp.Simplex.solve ~params:params_a sf in
           let rb = Lp.Simplex.solve ~params:params_b sf in
           ra.Lp.Simplex.status = rb.Lp.Simplex.status
           && (ra.Lp.Simplex.status <> Lp.Simplex.Optimal
              || Float.abs
                   (ra.Lp.Simplex.objective -. rb.Lp.Simplex.objective)
                 <= 1e-5
                    *. Float.max 1.0 (Float.abs ra.Lp.Simplex.objective))))
  in
  let dflt = Lp.Simplex.default_params in
  [
    agree "partial pricing finds the same optimum as full sweeps" 30 424
      { dflt with Lp.Simplex.partial_pricing = false }
      dflt;
    agree "tiny fill limit forces refactorizations without changing optima"
      30 733 dflt
      { dflt with Lp.Simplex.fill_limit = 1.01; refactor_every = 3 };
    agree
      "drift checks on every pivot do not change optima (regression)"
      30 955 dflt
      { dflt with Lp.Simplex.refactor_every = 1 };
  ]

(* [Basis.ftran_col] and [Basis.unit_row] write into a buffer that must
   be all zero on entry; they neither scan nor clear it.  The simplex
   reuses one buffer per solve kind and re-zeroes it over the support
   the last solve reported (everywhere after a dense-path solve). *)
let zeroed_buffer_tests =
  [
    Alcotest.test_case "a buffer cleared over the last support is fresh"
      `Quick (fun () ->
        let sf, basic = Bench_harness.Micro.node_basis () in
        let a = sf.Lp.Std_form.a in
        let m = Array.length basic in
        let unit_sign =
          Array.init m (fun i -> if i mod 3 = 0 then -1.0 else 1.0)
        in
        let rep = Lp.Basis.create m in
        Lp.Basis.factorize rep a ~unit_sign basic;
        let rng = Workload.Rng.create 3L in
        let buf = Array.make m 0.0 and sup = Array.make m 0 in
        let sup_n = ref 0 in
        for step = 1 to 400 do
          if !sup_n < 0 then Array.fill buf 0 m 0.0
          else for t = 0 to !sup_n - 1 do buf.(sup.(t)) <- 0.0 done;
          if not (Array.for_all (fun v -> v = 0.0) buf) then
            Alcotest.failf "step %d: the support missed a nonzero" step;
          let solve =
            if Workload.Rng.bool rng then
              Lp.Basis.unit_row rep (Workload.Rng.int rng m)
            else
              Lp.Basis.ftran_col rep a ~unit_sign
                (Workload.Rng.int rng (Lina.Csc.cols a + m))
          in
          let fresh = Array.make m 0.0 in
          let want = solve fresh in
          let got = solve buf in
          sup_n := Lp.Basis.support_len rep;
          if !sup_n > 0 then Array.blit (Lp.Basis.support rep) 0 sup 0 !sup_n;
          (* Zeros may differ in sign: a -0.0 a solve left outside its
             support survives the clear, and compares equal to 0.0. *)
          if got <> want
             || not
                  (Array.for_all2
                     (fun u v ->
                       if v = 0.0 then u = 0.0
                       else Int64.bits_of_float u = Int64.bits_of_float v)
                     buf fresh)
          then
            Alcotest.failf "step %d: the reused buffer gives another result"
              step
        done);
    Alcotest.test_case "a dirty buffer is not cleared by the solve" `Quick
      (fun () ->
        (* The precondition is load-bearing: no O(m) pass hides a stale
           entry, so the caller must zero the buffer. *)
        let sf, basic = Bench_harness.Micro.node_basis () in
        let a = sf.Lp.Std_form.a in
        let m = Array.length basic in
        let rep = Lp.Basis.create m in
        Lp.Basis.factorize rep a ~unit_sign:[||] basic;
        let fresh = Array.make m 0.0 in
        ignore (Lp.Basis.unit_row rep 0 fresh : int);
        let listed = Array.make m false in
        for t = 0 to Lp.Basis.support_len rep - 1 do
          listed.((Lp.Basis.support rep).(t)) <- true
        done;
        let stale = ref (-1) in
        Array.iteri
          (fun i l -> if (not l) && !stale < 0 then stale := i)
          listed;
        let dirty = Array.make m 0.0 in
        dirty.(!stale) <- 1.0;
        ignore (Lp.Basis.unit_row rep 0 dirty : int);
        Alcotest.(check (float 0.0)) "stale entry survives" 1.0
          dirty.(!stale));
  ]

let suite =
  [
    ("lp.model",
     model_tests @ canonical_row_tests @ std_form_tests @ recycle_tests);
    ("lp.simplex", simplex_tests @ simplex_properties);
    ("lp.session", session_tests @ session_properties);
    ("lp.basis", basis_tests @ basis_properties @ zeroed_buffer_tests);
  ]
