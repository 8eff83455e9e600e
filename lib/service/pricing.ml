module Instance = Tvnep.Instance
module Request = Tvnep.Request
module Solution = Tvnep.Solution
module Substrate = Tvnep.Substrate

type params = { beta : float; sensitivity : float; floor : float }

let make_params ?(beta = 0.5) ?(sensitivity = 1.0) ?(floor = 0.0) () =
  if beta <= 0.0 || beta > 1.0 || not (Float.is_finite beta) then
    invalid_arg "Pricing.make_params: beta outside (0, 1]";
  if sensitivity < 0.0 || not (Float.is_finite sensitivity) then
    invalid_arg "Pricing.make_params: negative sensitivity";
  if floor < 0.0 || not (Float.is_finite floor) then
    invalid_arg "Pricing.make_params: negative floor";
  { beta; sensitivity; floor }

let default_params = make_params ()

type t = {
  params : params;
  node_prices : float array;
  link_prices : float array;
}

let create inst params =
  let sub = inst.Instance.substrate in
  {
    params;
    node_prices = Array.make (Substrate.num_nodes sub) params.floor;
    link_prices = Array.make (Substrate.num_links sub) params.floor;
  }

(* Time-integrated utilization of every resource under the committed
   solution: Σ demand·(t⁻ − t⁺) / (capacity·horizon).  Piecewise-constant
   allocations make the integral exact. *)
let utilization inst (sol : Solution.t) =
  let sub = inst.Instance.substrate in
  let nu = Array.make (Substrate.num_nodes sub) 0.0 in
  let lu = Array.make (Substrate.num_links sub) 0.0 in
  Array.iteri
    (fun i (a : Solution.assignment) ->
      if a.Solution.accepted then begin
        let r = Instance.request inst i in
        let span = Float.max 0.0 (a.Solution.t_end -. a.Solution.t_start) in
        Array.iteri
          (fun v host ->
            nu.(host) <- nu.(host) +. (r.Request.node_demand.(v) *. span))
          a.Solution.node_map;
        Array.iteri
          (fun lv flows ->
            let demand = r.Request.link_demand.(lv) in
            List.iter
              (fun (ls, frac) ->
                lu.(ls) <- lu.(ls) +. (demand *. frac *. span))
              flows)
          a.Solution.link_flows
      end)
    sol.Solution.assignments;
  let horizon = inst.Instance.horizon in
  Array.iteri
    (fun s x -> nu.(s) <- x /. (Substrate.node_cap sub s *. horizon))
    nu;
  Array.iteri
    (fun e x -> lu.(e) <- x /. (Substrate.link_cap sub e *. horizon))
    lu;
  (nu, lu)

let eps = 1e-6

let smooth params prices util =
  Array.iteri
    (fun i p ->
      let u = Float.min util.(i) 1.0 in
      let target =
        params.floor +. (params.sensitivity *. u /. (1.0 -. u +. eps))
      in
      prices.(i) <- ((1.0 -. params.beta) *. p) +. (params.beta *. target))
    prices

let update t inst sol =
  let nu, lu = utilization inst sol in
  smooth t.params t.node_prices nu;
  smooth t.params t.link_prices lu

let assignment_cost t inst req (a : Solution.assignment) =
  let r = Instance.request inst req in
  let span = Float.max 0.0 (a.Solution.t_end -. a.Solution.t_start) in
  let node_cost = ref 0.0 in
  Array.iteri
    (fun v host ->
      node_cost :=
        !node_cost +. (r.Request.node_demand.(v) *. t.node_prices.(host)))
    a.Solution.node_map;
  let link_cost = ref 0.0 in
  Array.iteri
    (fun lv flows ->
      let demand = r.Request.link_demand.(lv) in
      List.iter
        (fun (ls, frac) ->
          link_cost := !link_cost +. (demand *. frac *. t.link_prices.(ls)))
        flows)
    a.Solution.link_flows;
  span *. (!node_cost +. !link_cost)

let node_prices t = Array.copy t.node_prices
let link_prices t = Array.copy t.link_prices
