(* Branch-and-bound tests: known optima, exhaustive cross-checks against
   brute force, propagation, seeding. *)

let feq = Alcotest.(check (float 1e-6))

let v (x : Lp.Model.var) = (x, 1.0)

let bb_status = Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf (Mip.Branch_bound.status_to_string s))
    ( = )

let heap_tests =
  [
    Alcotest.test_case "push/pop ordering" `Quick (fun () ->
        let h = Mip.Heap.create () in
        List.iter (fun k -> Mip.Heap.push h ~key:k (int_of_float k))
          [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
        Alcotest.(check (option (float 0.0))) "peek" (Some 1.0)
          (Mip.Heap.peek_key h);
        let order = List.init 5 (fun _ ->
            match Mip.Heap.pop h with Some (_, x) -> x | None -> -1) in
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order;
        Alcotest.(check bool) "empty" true (Mip.Heap.is_empty h));
    Alcotest.test_case "fold visits all" `Quick (fun () ->
        let h = Mip.Heap.create () in
        for i = 1 to 10 do
          Mip.Heap.push h ~key:(float_of_int i) i
        done;
        let sum = Mip.Heap.fold (fun acc _ x -> acc + x) 0 h in
        Alcotest.(check int) "sum" 55 sum);
  ]

let heap_properties =
  let heap_of keys =
    let h = Mip.Heap.create () in
    List.iteri (fun i k -> Mip.Heap.push h ~key:k i) keys;
    h
  in
  let keys_gen = QCheck2.Gen.(list_size (0 -- 60) (float_range (-1e3) 1e3)) in
  [
    Seeded.to_alcotest ~seed:3101
      (QCheck2.Test.make ~name:"heap pops keys in ascending order" ~count:200
         keys_gen
         (fun keys ->
           let h = heap_of keys in
           let popped =
             List.init (List.length keys) (fun _ ->
                 match Mip.Heap.pop h with
                 | Some (k, _) -> k
                 | None -> nan)
           in
           Mip.Heap.is_empty h
           && List.sort compare keys = popped));
    Seeded.to_alcotest ~seed:3102
      (QCheck2.Test.make ~name:"pop_k equals k repeated pops"
         ~count:200
         QCheck2.Gen.(pair keys_gen (0 -- 70))
         (fun (keys, k) ->
           let a = heap_of keys and b = heap_of keys in
           let via_pop_k = Mip.Heap.pop_k a k in
           let via_pops =
             List.filter_map
               (fun _ -> Mip.Heap.pop b)
               (List.init (min k (List.length keys)) Fun.id)
           in
           List.map fst via_pop_k = List.map fst via_pops
           && List.length via_pop_k = min k (List.length keys)
           && Mip.Heap.size a = List.length keys - List.length via_pop_k));
    Seeded.to_alcotest ~seed:3103
      (QCheck2.Test.make ~name:"fold conserves the stored elements" ~count:200
         keys_gen
         (fun keys ->
           let h = heap_of keys in
           let seen = Mip.Heap.fold (fun acc k v -> (k, v) :: acc) [] h in
           (* every pushed (key, payload) pair is visited exactly once *)
           List.sort compare seen
           = List.sort compare (List.mapi (fun i k -> (k, i)) keys)
           (* and folding does not consume the heap *)
           && Mip.Heap.size h = List.length keys));
  ]

let knapsack_model values weights capacity =
  let n = Array.length values in
  let m = Lp.Model.create () in
  let vars =
    Array.init n (fun _ -> Lp.Model.add_var m ~kind:Lp.Model.Binary)
  in
  Lp.Model.add_le m
    (Array.to_list (Array.mapi (fun i x -> (x, weights.(i))) vars))
    capacity;
  Lp.Model.set_objective m Lp.Model.Maximize
    (Array.to_list (Array.mapi (fun i x -> (x, values.(i))) vars));
  m

let brute_knapsack values weights capacity =
  let n = Array.length values in
  let best = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let w = ref 0.0 and value = ref 0.0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        w := !w +. weights.(i);
        value := !value +. values.(i)
      end
    done;
    if !w <= capacity +. 1e-9 && !value > !best then best := !value
  done;
  !best

let bb_tests =
  [
    Alcotest.test_case "integer infeasible equality" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~ub:3.0 ~kind:Lp.Model.Integer in
        let y = Lp.Model.add_var m ~ub:3.0 ~kind:Lp.Model.Integer in
        Lp.Model.add_eq m [ v x; v y ] 1.5;
        Lp.Model.set_objective m Lp.Model.Minimize [ v x ];
        let r = Mip.Branch_bound.solve m in
        Alcotest.check bb_status "status" Mip.Branch_bound.Infeasible
          r.Mip.Branch_bound.status);
    Alcotest.test_case "pure LP passes through" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~ub:2.5 in
        Lp.Model.set_objective m Lp.Model.Maximize [ v x ];
        let r = Mip.Branch_bound.solve m in
        (match r.Mip.Branch_bound.objective with
        | Some o -> feq "obj" 2.5 o
        | None -> Alcotest.fail "no objective"));
    Alcotest.test_case "gap zero at optimality" `Quick (fun () ->
        let m = knapsack_model [| 10.; 13.; 7. |] [| 3.; 4.; 2. |] 6.0 in
        let r = Mip.Branch_bound.solve m in
        feq "gap" 0.0 r.Mip.Branch_bound.gap;
        (match r.Mip.Branch_bound.objective with
        | Some o -> feq "obj" 20.0 o
        | None -> Alcotest.fail "no objective");
        feq "bound" 20.0 r.Mip.Branch_bound.best_bound);
    Alcotest.test_case "general integers" `Quick (fun () ->
        (* max 3x + y st 2x + y <= 7.5, x <= 2.9, ints: x=2, y=3 -> 9
           (LP optimum x=2.9 is fractional, so branching is exercised) *)
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~ub:2.9 ~kind:Lp.Model.Integer in
        let y = Lp.Model.add_var m ~ub:10.0 ~kind:Lp.Model.Integer in
        Lp.Model.add_le m [ (x, 2.0); v y ] 7.5;
        Lp.Model.set_objective m Lp.Model.Maximize [ (x, 3.0); v y ];
        let r = Mip.Branch_bound.solve m in
        (match r.Mip.Branch_bound.objective with
        | Some o -> feq "obj" 9.0 o
        | None -> Alcotest.fail "no objective"));
    Alcotest.test_case "seeding with a valid point" `Quick (fun () ->
        let m = knapsack_model [| 10.; 13.; 7. |] [| 3.; 4.; 2. |] 6.0 in
        (* seed with the optimal selection {b, c} *)
        let r = Mip.Branch_bound.solve ~initial:[| 0.0; 1.0; 1.0 |] m in
        (match r.Mip.Branch_bound.objective with
        | Some o -> feq "obj" 20.0 o
        | None -> Alcotest.fail "no objective"));
    Alcotest.test_case "invalid seed is ignored" `Quick (fun () ->
        let m = knapsack_model [| 10.; 13.; 7. |] [| 3.; 4.; 2. |] 6.0 in
        (* violates the capacity row *)
        let r = Mip.Branch_bound.solve ~initial:[| 1.0; 1.0; 1.0 |] m in
        (match r.Mip.Branch_bound.objective with
        | Some o -> feq "still optimal" 20.0 o
        | None -> Alcotest.fail "no objective"));
    Alcotest.test_case "node limit reported" `Quick (fun () ->
        let rng = Workload.Rng.create 17L in
        let n = 16 in
        let values = Array.init n (fun _ -> Workload.Rng.float_range rng 1.0 50.0) in
        let weights = Array.init n (fun _ -> Workload.Rng.float_range rng 1.0 20.0) in
        let m = knapsack_model values weights 50.0 in
        let params = { Mip.Branch_bound.default_params with node_limit = 3 } in
        let r = Mip.Branch_bound.solve ~params m in
        Alcotest.check bb_status "status" Mip.Branch_bound.Node_limit
          r.Mip.Branch_bound.status);
  ]

let bb_properties =
  [
    Seeded.to_alcotest ~seed:3104
      (QCheck2.Test.make ~name:"B&B equals brute force on random knapsacks"
         ~count:30
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let rng = Workload.Rng.create (Int64.of_int (seed + 5)) in
           let n = 3 + Workload.Rng.int rng 10 in
           let values =
             Array.init n (fun _ -> float_of_int (1 + Workload.Rng.int rng 40))
           in
           let weights =
             Array.init n (fun _ -> float_of_int (1 + Workload.Rng.int rng 15))
           in
           let capacity = float_of_int (5 + Workload.Rng.int rng 40) in
           let m = knapsack_model values weights capacity in
           let r = Mip.Branch_bound.solve m in
           match r.Mip.Branch_bound.objective with
           | Some o ->
             Float.abs (o -. brute_knapsack values weights capacity) < 1e-6
           | None -> false));
    Seeded.to_alcotest ~seed:3105
      (QCheck2.Test.make
         ~name:"B&B equals brute force on random bounded IPs" ~count:25
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           (* max c x  st  A x <= b, x in {0,1,2}^n with random A (can be
              negative), checked exhaustively. *)
           let rng = Workload.Rng.create (Int64.of_int (seed + 55)) in
           let n = 2 + Workload.Rng.int rng 3 in
           let rows = 1 + Workload.Rng.int rng 3 in
           let a =
             Array.init rows (fun _ ->
                 Array.init n (fun _ ->
                     float_of_int (Workload.Rng.int rng 7 - 2)))
           in
           let b =
             Array.init rows (fun _ -> float_of_int (Workload.Rng.int rng 9))
           in
           let c =
             Array.init n (fun _ -> float_of_int (Workload.Rng.int rng 10))
           in
           let m = Lp.Model.create () in
           let vars =
             Array.init n (fun _ ->
                 Lp.Model.add_var m ~ub:2.0 ~kind:Lp.Model.Integer)
           in
           Array.iteri
             (fun i row ->
               Lp.Model.add_le m
                 (Array.to_list (Array.mapi (fun j x -> (x, row.(j))) vars))
                 b.(i))
             a;
           Lp.Model.set_objective m Lp.Model.Maximize
             (Array.to_list (Array.mapi (fun j x -> (x, c.(j))) vars));
           let r = Mip.Branch_bound.solve m in
           (* brute force over 3^n points *)
           let best = ref neg_infinity in
           let x = Array.make n 0 in
           let rec enum i =
             if i = n then begin
               let ok = ref true in
               Array.iteri
                 (fun row_i row ->
                   let act = ref 0.0 in
                   Array.iteri
                     (fun j coef -> act := !act +. (coef *. float_of_int x.(j)))
                     row;
                   if !act > b.(row_i) +. 1e-9 then ok := false)
                 a;
               if !ok then begin
                 let value = ref 0.0 in
                 Array.iteri
                   (fun j cj -> value := !value +. (cj *. float_of_int x.(j)))
                   c;
                 if !value > !best then best := !value
               end
             end
             else
               for d = 0 to 2 do
                 x.(i) <- d;
                 enum (i + 1)
               done
           in
           enum 0;
           match (r.Mip.Branch_bound.objective, !best) with
           | None, b -> b = neg_infinity
           | Some o, b -> Float.abs (o -. b) < 1e-6));
  ]

let propagate_tests =
  [
    Alcotest.test_case "detects row infeasibility" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~ub:1.0 in
        let y = Lp.Model.add_var m ~ub:1.0 in
        Lp.Model.add_ge m [ v x; v y ] 3.0;
        let sf = Lp.Std_form.of_model m in
        let p = Mip.Propagate.prepare sf in
        let n = Lp.Std_form.n_total sf in
        let lb = Array.sub sf.Lp.Std_form.lb 0 n in
        let ub = Array.sub sf.Lp.Std_form.ub 0 n in
        (match Mip.Propagate.run p (Mip.Propagate.scratch p) ~lb ~ub with
        | Mip.Propagate.Infeasible_node -> ()
        | Mip.Propagate.Tightened _ -> Alcotest.fail "expected infeasible"));
    Alcotest.test_case "fixes partners in an exactly-one row" `Quick (fun () ->
        let m = Lp.Model.create () in
        let x = Lp.Model.add_var m ~kind:Lp.Model.Binary in
        let y = Lp.Model.add_var m ~kind:Lp.Model.Binary in
        let z = Lp.Model.add_var m ~kind:Lp.Model.Binary in
        Lp.Model.add_eq m [ v x; v y; v z ] 1.0;
        let sf = Lp.Std_form.of_model m in
        let p = Mip.Propagate.prepare sf in
        let n = Lp.Std_form.n_total sf in
        let lb = Array.sub sf.Lp.Std_form.lb 0 n in
        let ub = Array.sub sf.Lp.Std_form.ub 0 n in
        lb.(0) <- 1.0;  (* branch x = 1 *)
        (match Mip.Propagate.run p (Mip.Propagate.scratch p) ~lb ~ub with
        | Mip.Propagate.Infeasible_node -> Alcotest.fail "should be feasible"
        | Mip.Propagate.Tightened changes ->
          Alcotest.(check bool) "some tightening" true (changes >= 2);
          feq "y fixed to 0" 0.0 ub.(1);
          feq "z fixed to 0" 0.0 ub.(2)));
    Alcotest.test_case "propagation preserves the integer optimum" `Quick
      (fun () ->
        let m = knapsack_model [| 10.; 13.; 7. |] [| 3.; 4.; 2. |] 6.0 in
        let sf = Lp.Std_form.of_model m in
        let p = Mip.Propagate.prepare sf in
        let n = Lp.Std_form.n_total sf in
        let lb = Array.sub sf.Lp.Std_form.lb 0 n in
        let ub = Array.sub sf.Lp.Std_form.ub 0 n in
        match Mip.Propagate.run p (Mip.Propagate.scratch p) ~lb ~ub with
        | Mip.Propagate.Infeasible_node -> Alcotest.fail "feasible model"
        | Mip.Propagate.Tightened _ ->
          (* optimal point must still be inside the tightened box *)
          let opt = [| 0.0; 1.0; 1.0 |] in
          Array.iteri
            (fun j x ->
              Alcotest.(check bool) "within box" true
                (x >= lb.(j) -. 1e-9 && x <= ub.(j) +. 1e-9))
            opt);
  ]

(* Oracle: the closure-based row view and propagation loop that the
   allocation-free [Propagate] replaced, kept verbatim. *)
module Old_propagate = struct
  type t = {
    sf : Lp.Std_form.t;
    row_cols : int array array;
    row_coefs : float array array;
  }

  let prepare sf =
    let n_struct = sf.Lp.Std_form.n_struct in
    let n_rows = sf.Lp.Std_form.n_rows in
    let acc = Array.make n_rows [] in
    for j = 0 to n_struct - 1 do
      Lina.Csc.iter_col sf.Lp.Std_form.a j (fun i v ->
          acc.(i) <- (j, v) :: acc.(i))
    done;
    {
      sf;
      row_cols = Array.map (fun l -> Array.of_list (List.map fst l)) acc;
      row_coefs = Array.map (fun l -> Array.of_list (List.map snd l)) acc;
    }

  exception Dead

  let tol = 1e-7

  let run ?(max_rounds = 10) p ~lb ~ub =
    let sf = p.sf in
    let n_struct = sf.Lp.Std_form.n_struct in
    let n_rows = sf.Lp.Std_form.n_rows in
    let changes = ref 0 in
    let round_changes = ref 1 in
    let rounds = ref 0 in
    try
      for j = 0 to n_struct - 1 do
        if lb.(j) > ub.(j) +. tol then raise Dead
      done;
      while !round_changes > 0 && !rounds < max_rounds do
        round_changes := 0;
        incr rounds;
        for i = 0 to n_rows - 1 do
          let cols = p.row_cols.(i) and coefs = p.row_coefs.(i) in
          let lo = lb.(n_struct + i) and hi = ub.(n_struct + i) in
          let minact = ref 0.0 and maxact = ref 0.0 in
          for k = 0 to Array.length cols - 1 do
            let j = cols.(k) and a = coefs.(k) in
            if a > 0.0 then begin
              minact := !minact +. (a *. lb.(j));
              maxact := !maxact +. (a *. ub.(j))
            end
            else begin
              minact := !minact +. (a *. ub.(j));
              maxact := !maxact +. (a *. lb.(j))
            end
          done;
          let scale =
            Float.max 1.0 (Float.max (Float.abs lo) (Float.abs hi))
          in
          if !minact > hi +. (tol *. scale) || !maxact < lo -. (tol *. scale)
          then raise Dead;
          for k = 0 to Array.length cols - 1 do
            let j = cols.(k) and a = coefs.(k) in
            let integer = sf.Lp.Std_form.integer.(j) in
            let apply_ub new_ub =
              let new_ub =
                if integer then Float.floor (new_ub +. 1e-6) else new_ub
              in
              let new_ub =
                if new_ub < lb.(j) && lb.(j) -. new_ub <= tol then lb.(j)
                else new_ub
              in
              if new_ub < ub.(j) -. 1e-9 then begin
                ub.(j) <- new_ub;
                incr changes;
                incr round_changes;
                if lb.(j) > ub.(j) +. tol then raise Dead
              end
            in
            let apply_lb new_lb =
              let new_lb =
                if integer then Float.ceil (new_lb -. 1e-6) else new_lb
              in
              let new_lb =
                if new_lb > ub.(j) && new_lb -. ub.(j) <= tol then ub.(j)
                else new_lb
              in
              if new_lb > lb.(j) +. 1e-9 then begin
                lb.(j) <- new_lb;
                incr changes;
                incr round_changes;
                if lb.(j) > ub.(j) +. tol then raise Dead
              end
            in
            if a > 0.0 then begin
              let rest_min = !minact -. (a *. lb.(j)) in
              if hi < infinity && rest_min > neg_infinity then
                apply_ub ((hi -. rest_min) /. a);
              let rest_max = !maxact -. (a *. ub.(j)) in
              if lo > neg_infinity && rest_max < infinity then
                apply_lb ((lo -. rest_max) /. a)
            end
            else begin
              let rest_min = !minact -. (a *. ub.(j)) in
              if hi < infinity && rest_min > neg_infinity then
                apply_lb ((hi -. rest_min) /. a);
              let rest_max = !maxact -. (a *. lb.(j)) in
              if lo > neg_infinity && rest_max < infinity then
                apply_ub ((lo -. rest_max) /. a)
            end
          done
        done
      done;
      Some !changes
    with Dead -> None
end

(* A small mixed binary/continuous model (rows of every sense, some
   unbounded columns) and a random branching box over its columns and
   some of its row ranges. *)
let random_propagation_case seed =
  let rng = Workload.Rng.create (Int64.of_int (seed + 313)) in
  let m = Lp.Model.create () in
  let n = 1 + Workload.Rng.int rng 6 in
  let vars =
    Array.init n (fun _ ->
        if Workload.Rng.bool rng then
          Lp.Model.add_var m ~kind:Lp.Model.Binary
        else
          let lb = -.float_of_int (Workload.Rng.int rng 3) in
          let ub =
            if Workload.Rng.int rng 4 = 0 then infinity
            else Workload.Rng.float_range rng 0.0 5.0
          in
          Lp.Model.add_var m ~lb ~ub)
  in
  let coefs = [| 1.0; -1.0; 2.0; 0.5; -3.0; 0.1; 0.7 |] in
  for _ = 1 to Workload.Rng.int rng 6 do
    let e =
      Array.fold_left
        (fun e x ->
          if Workload.Rng.int rng 3 = 0 then e
          else (x, Workload.Rng.pick rng coefs) :: e)
        [] vars
    in
    let rhs = Workload.Rng.float_range rng (-2.0) 4.0 in
    match Workload.Rng.int rng 4 with
    | 0 -> Lp.Model.add_le m e rhs
    | 1 -> Lp.Model.add_ge m e rhs
    | 2 -> Lp.Model.add_eq m e (Float.round rhs)
    | _ -> Lp.Model.add_range m ~lo:(rhs -. 1.5) ~hi:rhs e
  done;
  let sf = Lp.Std_form.of_model m in
  let total = Lp.Std_form.n_total sf in
  let lb = Array.sub sf.Lp.Std_form.lb 0 total in
  let ub = Array.sub sf.Lp.Std_form.ub 0 total in
  for j = 0 to n - 1 do
    match Workload.Rng.int rng 4 with
    | 0 when sf.Lp.Std_form.integer.(j) ->
      let side = float_of_int (Workload.Rng.int rng 2) in
      lb.(j) <- side;
      ub.(j) <- side
    | 1 -> lb.(j) <- lb.(j) +. Workload.Rng.float_range rng 0.0 1.0
    | 2 -> ub.(j) <- Float.min ub.(j) (Workload.Rng.float_range rng 0.0 2.0)
    | _ -> ()
  done;
  (* Some row ranges narrowed too: a logical bound off the form's. *)
  for j = n to total - 1 do
    match Workload.Rng.int rng 5 with
    | 0 when ub.(j) < infinity -> ub.(j) <- ub.(j) -. 0.5
    | 1 when lb.(j) > neg_infinity -> lb.(j) <- lb.(j) +. 0.5
    | _ -> ()
  done;
  (sf, lb, ub)

let same_bits a b =
  Array.map Int64.bits_of_float a = Array.map Int64.bits_of_float b

let propagate_properties =
  [
    Seeded.to_alcotest ~seed:4242
      (QCheck2.Test.make
         ~name:"propagation matches the closure-based oracle" ~count:500
         QCheck2.Gen.(int_bound 1_000_000)
         (fun seed ->
           let sf, lb, ub = random_propagation_case seed in
           let lb' = Array.copy lb and ub' = Array.copy ub in
           let got =
             let p = Mip.Propagate.prepare sf in
             match Mip.Propagate.run p (Mip.Propagate.scratch p) ~lb ~ub with
             | Mip.Propagate.Infeasible_node -> None
             | Mip.Propagate.Tightened c -> Some c
           in
           let want =
             Old_propagate.run (Old_propagate.prepare sf) ~lb:lb' ~ub:ub'
           in
           got = want && same_bits lb lb' && same_bits ub ub'));
  ]

(* Real Σ and cΣ standard forms of seeded scaled instances (access
   control), each compiled once for all the boxes drawn on it. *)
let real_forms =
  lazy
    (List.concat_map
       (fun seed ->
         let rng = Workload.Rng.create (Int64.of_int seed) in
         let inst =
           Tvnep.Scenario.generate rng
             {
               Tvnep.Scenario.scaled with
               num_requests = 3 + (seed mod 3);
               flexibility = float_of_int (seed mod 3);
             }
         in
         List.map
           (fun build ->
             let fm = build inst in
             ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
             let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
             (sf, Mip.Propagate.prepare sf, Old_propagate.prepare sf))
           [
             (fun i -> Tvnep.Sigma_model.build i);
             (fun i -> Tvnep.Csigma_model.build i);
           ])
       [ 1; 2; 3; 4 ])

(* A branching box on a real form: a few binaries fixed either way (the
   B&B's branchings) and, sometimes, a continuous column narrowed. *)
let real_box rng sf =
  let total = Lp.Std_form.n_total sf in
  let lb = Array.sub sf.Lp.Std_form.lb 0 total in
  let ub = Array.sub sf.Lp.Std_form.ub 0 total in
  let n_struct = sf.Lp.Std_form.n_struct in
  for _ = 1 to 1 + Workload.Rng.int rng 6 do
    let j = Workload.Rng.int rng n_struct in
    if sf.Lp.Std_form.integer.(j) then
      if Workload.Rng.bool rng then lb.(j) <- Float.max lb.(j) 1.0
      else ub.(j) <- Float.min ub.(j) 0.0
    else if ub.(j) < infinity && lb.(j) > neg_infinity then
      lb.(j) <- lb.(j) +. (0.5 *. (ub.(j) -. lb.(j)))
  done;
  (lb, ub)

(* The worklist against the full-sweep oracle on real forms: bounds,
   count and outcome bit for bit, with the rows it skipped counted, in
   all rounds and in round 1, so both skip paths are shown to run. *)
let real_form_property =
  let skipped = ref 0 and first = ref 0 and runs = ref 0 in
  let name, speed, run =
    Seeded.to_alcotest ~seed:4243
      (QCheck2.Test.make
         ~name:"worklist matches the full sweep on \xce\xa3/c\xce\xa3 forms"
         ~count:400
         QCheck2.Gen.(pair (int_bound 7) (int_bound 1_000_000))
         (fun (form, seed) ->
           let sf, p, old = List.nth (Lazy.force real_forms) form in
           let rng = Workload.Rng.create (Int64.of_int (seed + 977)) in
           let lb, ub = real_box rng sf in
           let lb' = Array.copy lb and ub' = Array.copy ub in
           let sc = Mip.Propagate.scratch p in
           let got =
             match Mip.Propagate.run p sc ~lb ~ub with
             | Mip.Propagate.Infeasible_node -> None
             | Mip.Propagate.Tightened c -> Some c
           in
           skipped := !skipped + Mip.Propagate.skipped sc;
           first := !first + Mip.Propagate.skipped_first_round sc;
           incr runs;
           got = Old_propagate.run old ~lb:lb' ~ub:ub'
           && same_bits lb lb' && same_bits ub ub'))
  in
  ( name,
    speed,
    fun () ->
      skipped := 0;
      first := 0;
      runs := 0;
      run ();
      Printf.printf "%d rows skipped over %d runs, %d of them in round 1\n"
        !skipped !runs !first;
      if !skipped = !first then
        Alcotest.fail "the worklist never skipped a row after round 1";
      if !first = 0 then Alcotest.fail "round 1 never skipped a row" )

let propagate_alloc_tests =
  [
    Alcotest.test_case "run allocates under 1 KB on a c\xce\xa3 form" `Quick
      (fun () ->
        let rng = Workload.Rng.create 5L in
        let inst =
          Tvnep.Scenario.generate rng
            { Tvnep.Scenario.scaled with num_requests = 4; flexibility = 1.0 }
        in
        let fm = Tvnep.Csigma_model.build inst in
        ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
        let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
        let p = Mip.Propagate.prepare sf in
        let sc = Mip.Propagate.scratch p in
        let total = Lp.Std_form.n_total sf in
        let lb = Array.sub sf.Lp.Std_form.lb 0 total in
        let ub = Array.sub sf.Lp.Std_form.ub 0 total in
        (* Branch the first binary up so the rounds do real work. *)
        let j = ref 0 in
        while not sf.Lp.Std_form.integer.(!j) do incr j done;
        lb.(!j) <- 1.0;
        let outcome = ref (Mip.Propagate.Tightened 0) in
        let bytes =
          Gc_probe.allocated_bytes (fun () ->
              outcome := Mip.Propagate.run p sc ~lb ~ub)
        in
        (match !outcome with
        | Mip.Propagate.Tightened c when c > 0 -> ()
        | _ -> Alcotest.fail "the branching should tighten bounds");
        if bytes >= 1024.0 then
          Alcotest.failf "Propagate.run allocated %.0f bytes" bytes);
  ]

(* Warm dual-simplex sessions are now the default for node LP re-solves.
   The search may take a different pivot path than cold re-solving every
   node from scratch, but on the seed TVNEP scenarios both must prove the
   same optimum: same status, same incumbent objective, same bound.  (The
   byte-identity of the work-clock tables across [--jobs] levels is
   covered separately by runtime.determinism.) *)
let warm_session_tests =
  [
    Alcotest.test_case "warm sessions match cold re-solves on seed scenarios"
      `Quick (fun () ->
        let scenarios =
          [
            (3L, 3, 1.0);
            (11L, 3, 2.0);
            (7L, 4, 1.5);
          ]
        in
        List.iter
          (fun (seed, num_requests, flexibility) ->
            let inst =
              Tvnep.Scenario.generate
                (Workload.Rng.create seed)
                { Tvnep.Scenario.scaled with num_requests; flexibility }
            in
            let run warm_sessions =
              Tvnep.Solver.run inst
                (Tvnep.Solver.Options.make
                   ~mip:
                     { Mip.Branch_bound.default_params with
                       time_limit = 60.0;
                       warm_sessions }
                   ())
            in
            let warm = run true and cold = run false in
            let tag fmt =
              Printf.sprintf "seed %Ld: %s" seed fmt
            in
            let solver_status =
              Alcotest.testable
                (fun ppf s ->
                  Format.pp_print_string ppf (Tvnep.Solver.status_to_string s))
                ( = )
            in
            Alcotest.check solver_status (tag "status") cold.Tvnep.Solver.status
              warm.Tvnep.Solver.status;
            Alcotest.(check (option (float 1e-6)))
              (tag "incumbent objective") cold.Tvnep.Solver.objective
              warm.Tvnep.Solver.objective;
            feq (tag "proved bound") cold.Tvnep.Solver.bound
              warm.Tvnep.Solver.bound)
          scenarios);
  ]

(* The synchronous-batch scheduler promises that [jobs] trades wall-clock
   time only: status, objective, proved bound, node count, LP iterations,
   structured stats and the deterministic work-clock total must all be
   identical at every jobs level.  These regressions pin that contract on
   searches that terminate each way (optimality, node limit, time
   limit). *)
let parallel_tests =
  let random_knapsack seed =
    let rng = Workload.Rng.create (Int64.of_int seed) in
    let n = 12 + Workload.Rng.int rng 5 in
    let values =
      Array.init n (fun _ -> float_of_int (1 + Workload.Rng.int rng 40))
    in
    let weights =
      Array.init n (fun _ -> float_of_int (1 + Workload.Rng.int rng 15))
    in
    let capacity = float_of_int (20 + Workload.Rng.int rng 40) in
    knapsack_model values weights capacity
  in
  (* Everything observable about a solve, including the shared clock. *)
  let fingerprint ?time_limit ?node_limit ~jobs m =
    let budget =
      Runtime.Budget.create ~deterministic:1e5 ?time_limit ?node_limit ()
    in
    let stats = Runtime.Stats.create () in
    let params = { Mip.Branch_bound.default_params with jobs } in
    let r = Mip.Branch_bound.solve ~params ~budget ~stats m in
    ( ( r.Mip.Branch_bound.status,
        r.Mip.Branch_bound.objective,
        r.Mip.Branch_bound.best_bound,
        r.Mip.Branch_bound.nodes,
        r.Mip.Branch_bound.lp_iterations ),
      ( Runtime.Budget.ticks budget,
        stats.Runtime.Stats.bb_nodes,
        stats.Runtime.Stats.simplex_iterations,
        stats.Runtime.Stats.lp_solves,
        stats.Runtime.Stats.incumbents ) )
  in
  let check_invariant ?time_limit ?node_limit seed =
    let m = random_knapsack seed in
    let base = fingerprint ?time_limit ?node_limit ~jobs:1 m in
    List.iter
      (fun jobs ->
        let got = fingerprint ?time_limit ?node_limit ~jobs m in
        if got <> base then
          Alcotest.failf "seed %d: jobs=%d diverges from jobs=1" seed jobs)
      [ 2; 4 ]
  in
  [
    Alcotest.test_case "jobs-invariant results on random knapsacks" `Quick
      (fun () -> List.iter check_invariant [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
    Alcotest.test_case "jobs-invariant under a node limit" `Quick (fun () ->
        List.iter (check_invariant ~node_limit:5) [ 11; 12; 13 ]);
    Alcotest.test_case "jobs-invariant when the deterministic clock expires"
      `Quick (fun () ->
        (* The budget dies mid-search: a handful of nodes fit before the
           work-clock deadline, so the stop lands inside a batch. *)
        List.iter (check_invariant ~time_limit:0.2) [ 21; 22; 23 ]);
    Alcotest.test_case "autodetected jobs match jobs=1" `Quick (fun () ->
        let m = random_knapsack 31 in
        Alcotest.(check bool) "identical" true
          (fingerprint ~jobs:0 m = fingerprint ~jobs:1 m));
    Alcotest.test_case "jobs 1 vs 4 byte-identical on the contended c\xce\xa3 \
                        instance"
      `Slow (fun () ->
        (* The bnb bench's contended instance (several requests fighting
           for a small grid): real batches, warm session re-solves on all
           four workers, adaptive batch growth and the per-worker bound
           scratch all engaged.  A short deterministic clock keeps the
           search to a few rounds while still stopping mid-batch. *)
        let rng = Workload.Rng.create 23L in
        let inst =
          Tvnep.Scenario.generate rng
            { Tvnep.Scenario.scaled with num_requests = 8; flexibility = 2.0 }
        in
        let fm = Tvnep.Csigma_model.build inst in
        ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
        let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
        let solve jobs =
          let budget =
            Runtime.Budget.create ~deterministic:2e9 ~time_limit:0.02 ()
          in
          let stats = Runtime.Stats.create () in
          let params = { Mip.Branch_bound.default_params with jobs } in
          let r = Mip.Branch_bound.solve_form ~params ~budget ~stats sf in
          ( ( Mip.Branch_bound.status_to_string r.Mip.Branch_bound.status,
              r.Mip.Branch_bound.objective,
              r.Mip.Branch_bound.best_bound,
              r.Mip.Branch_bound.nodes,
              r.Mip.Branch_bound.lp_iterations ),
            (Runtime.Budget.ticks budget, Runtime.Stats.to_string stats) )
        in
        let base = solve 1 in
        let par = solve 4 in
        if par <> base then
          Alcotest.failf "jobs=4 diverges from jobs=1 on the contended instance");
    Alcotest.test_case "jobs 1/2/4 byte-identical with propagation on" `Quick
      (fun () ->
        (* Each worker propagates on its own worklist scratch; the search
           must not see which worker evaluated a node.  Propagation must
           matter here: switching it off changes the search. *)
        let rng = Workload.Rng.create 5L in
        let inst =
          Tvnep.Scenario.generate rng
            { Tvnep.Scenario.scaled with num_requests = 5; flexibility = 1.0 }
        in
        let fm = Tvnep.Csigma_model.build inst in
        ignore (Tvnep.Objective.apply fm Tvnep.Objective.Access_control);
        let sf = Lp.Std_form.of_model fm.Tvnep.Formulation.model in
        let solve ~propagate jobs =
          let budget =
            Runtime.Budget.create ~deterministic:2e9 ~time_limit:0.05 ()
          in
          let stats = Runtime.Stats.create () in
          let params =
            { Mip.Branch_bound.default_params with jobs; propagate }
          in
          let r = Mip.Branch_bound.solve_form ~params ~budget ~stats sf in
          ( ( Mip.Branch_bound.status_to_string r.Mip.Branch_bound.status,
              r.Mip.Branch_bound.objective,
              r.Mip.Branch_bound.best_bound,
              r.Mip.Branch_bound.nodes,
              r.Mip.Branch_bound.lp_iterations ),
            (Runtime.Budget.ticks budget, Runtime.Stats.to_string stats) )
        in
        let base = solve ~propagate:true 1 in
        if solve ~propagate:false 1 = base then
          Alcotest.fail "propagation left the search unchanged";
        List.iter
          (fun jobs ->
            if solve ~propagate:true jobs <> base then
              Alcotest.failf "jobs=%d diverges from jobs=1" jobs)
          [ 2; 4 ]);
  ]

let suite =
  [
    ("mip.heap", heap_tests @ heap_properties);
    ("mip.branch_bound", bb_tests @ bb_properties);
    ("mip.propagate",
     propagate_tests @ propagate_properties @ propagate_alloc_tests
     @ [ real_form_property ]);
    ("mip.warm_sessions", warm_session_tests);
    ("mip.parallel", parallel_tests);
  ]
