(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload of the repo benchmark and prints, as the last line
   of standard output, one JSON object with keys correct, attempted,
   failed and metrics.  --trace 0 gives the end-to-end metrics, --trace 1
   the per-layer ones.  See README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: offline-flex grid-relax service-contended";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace ->
    let config =
      match Workloads.find w with
      | Some c -> c
      | None -> usage ()
    in
    let r =
      if trace then Traced.run config ~seed ~seconds
      else Measure.run config ~seed ~seconds
    in
    Printf.printf "# %s seed %d (%s)\n" w seed
      (if trace then "traced" else "untraced");
    List.iter (fun l -> Printf.printf "# %s\n" l) r.Measure.lines;
    List.iter
      (fun m ->
        Printf.printf "#   %-34s %16.6g %s\n" m.Measure.m_name m.Measure.value
          m.Measure.m_unit)
      r.Measure.metrics;
    print_endline (Measure.to_json r)
  | _ -> usage ()
