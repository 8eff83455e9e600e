type t = { idx : int array; value : float array }

let empty = { idx = [||]; value = [||] }

let of_assoc pairs =
  List.iter
    (fun (i, _) -> if i < 0 then invalid_arg "Sparse_vec.of_assoc: negative index")
    pairs;
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) pairs in
  (* Merge duplicates, drop near-zero sums. *)
  let rec merge acc = function
    | [] -> List.rev acc
    | (i, v) :: rest ->
      let rec take v = function
        | (j, w) :: tl when j = i -> take (v +. w) tl
        | tl -> (v, tl)
      in
      let v, rest = take v rest in
      if Tol.is_zero v then merge acc rest else merge ((i, v) :: acc) rest
  in
  let merged = merge [] sorted in
  {
    idx = Array.of_list (List.map fst merged);
    value = Array.of_list (List.map snd merged);
  }

let to_assoc v = Array.to_list (Array.map2 (fun i x -> (i, x)) v.idx v.value)

let nnz v = Array.length v.idx

let get v i =
  let lo = ref 0 and hi = ref (Array.length v.idx - 1) in
  let found = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let j = v.idx.(mid) in
    if j = i then begin
      found := v.value.(mid);
      lo := !hi + 1
    end
    else if j < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let dot_dense v dense =
  let acc = ref 0.0 in
  for k = 0 to Array.length v.idx - 1 do
    acc := !acc +. (v.value.(k) *. dense.(v.idx.(k)))
  done;
  !acc

let axpy_dense a v dense =
  for k = 0 to Array.length v.idx - 1 do
    let i = v.idx.(k) in
    dense.(i) <- dense.(i) +. (a *. v.value.(k))
  done

let scale a v =
  if Tol.is_zero a then empty
  else { v with value = Array.map (fun x -> a *. x) v.value }

let add u v = of_assoc (to_assoc u @ to_assoc v)

let map f v =
  of_assoc
    (List.filter_map
       (fun (i, x) ->
         let y = f x in
         if Tol.is_zero y then None else Some (i, y))
       (to_assoc v))

let iter f v =
  for k = 0 to Array.length v.idx - 1 do
    f v.idx.(k) v.value.(k)
  done

let fold f v init =
  let acc = ref init in
  iter (fun i x -> acc := f i x !acc) v;
  !acc

let max_index v =
  let n = Array.length v.idx in
  if n = 0 then -1 else v.idx.(n - 1)

let pp ppf v =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (i, x) -> Format.fprintf ppf "%d:%g" i x))
    (to_assoc v)
