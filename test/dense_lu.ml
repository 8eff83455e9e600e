(* Dense LU with partial pivoting over row arrays: the oracle the tests
   check the sparse Forrest–Tomlin basis solves against. *)

type t = {
  lu : float array array;  (* L below the diagonal (unit), U on and above *)
  perm : int array;  (* source row of factor row i *)
}

(* @raise Lina.Lu.Singular when no pivot reaches Lina.Tol.pivot. *)
let factorize a =
  let n = Array.length a in
  if Array.exists (fun row -> Array.length row <> n) a then
    invalid_arg "Dense_lu.factorize: not square";
  let lu = Array.map Array.copy a and perm = Array.init n Fun.id in
  let swap v i k =
    let t = v.(i) in
    v.(i) <- v.(k);
    v.(k) <- t
  in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.(i).(k) > Float.abs lu.(!p).(k) then p := i
    done;
    if Float.abs lu.(!p).(k) < Lina.Tol.pivot then raise (Lina.Lu.Singular k);
    swap lu k !p;
    swap perm k !p;
    let uk = lu.(k) in
    for i = k + 1 to n - 1 do
      let row = lu.(i) in
      let l = row.(k) /. uk.(k) in
      row.(k) <- l;
      if l <> 0.0 then
        for j = k + 1 to n - 1 do
          row.(j) <- row.(j) -. (l *. uk.(j))
        done
    done
  done;
  { lu; perm }

(* [solve f b] is [x] with [A x = b]. *)
let solve { lu; perm } b =
  let n = Array.length lu in
  if Array.length b <> n then invalid_arg "Dense_lu.solve: dim";
  let y = Array.map (fun p -> b.(p)) perm in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (lu.(i).(j) *. y.(j))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      y.(i) <- y.(i) -. (lu.(i).(j) *. y.(j))
    done;
    y.(i) <- y.(i) /. lu.(i).(i)
  done;
  y
