(* The one bench record: every emitter of a BENCH_<bench>.json file
   measures its runs into [t], checks them with its [gate] list and
   writes them with [emit].

   The document is
     {"schema": "tvnep-bench/1", "bench": name, "clock": text,
      "runs": [{"label", "status", "objective", "ticks", "wall_s",
                "minor_words", "counters": {...}, "detail"?: ...}]}
   Floats go through [Statsutil.Json.of_float_exact], so nan and ±inf
   survive and every value round-trips bit for bit.  [of_json] is the
   validator: it rejects a wrong schema, a missing field, a non-numeric
   counter and a duplicate label. *)

module Json = Statsutil.Json

let schema = "tvnep-bench/1"

type t = {
  label : string;          (* unique within a document *)
  status : string;
  objective : float;       (* nan = none *)
  ticks : int;             (* deterministic work ticks; 0 = wall-only *)
  wall_s : float;
  minor_words : float;     (* allocated on the measuring domain *)
  counters : (string * float) list;  (* bench-specific, in order *)
  detail : Json.t option;  (* one opaque document, passed through *)
}

type doc = { bench : string; clock : string; runs : t list }

let work_clock rate =
  Printf.sprintf "deterministic work ticks (%.0e ticks = 1 budget second)"
    rate

(* [f ()] with its wall time and the minor words it allocated. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  (x, wall_s, Gc.minor_words () -. w0)

(* --- lookups, for gates ------------------------------------------------ *)

(* Both raise [Not_found]; [check] reports that as a failed gate. *)
let find label runs = List.find (fun r -> r.label = label) runs
let counter r name = List.assoc name r.counters

(* --- equality ---------------------------------------------------------- *)

(* Bit equality, with every nan equal to every other. *)
let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let same_counters a b =
  List.equal (fun (k, x) (l, y) -> k = l && same_float x y) a b

(* Equal in everything the work clock determines: all but the label,
   wall time, allocation and detail. *)
let same_work a b =
  a.status = b.status
  && same_float a.objective b.objective
  && a.ticks = b.ticks
  && same_counters a.counters b.counters

let equal a b =
  same_work a b && a.label = b.label
  && same_float a.wall_s b.wall_s
  && same_float a.minor_words b.minor_words
  && a.detail = b.detail

let to_string r =
  Printf.sprintf "%s: %s, objective %.17g, %d ticks%s" r.label r.status
    r.objective r.ticks
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ", %s %.17g" k v) r.counters))

(* --- codec ------------------------------------------------------------- *)

let to_json d =
  let num = Json.of_float_exact in
  let run r =
    Json.Obj
      ([
         ("label", Json.Str r.label);
         ("status", Json.Str r.status);
         ("objective", num r.objective);
         ("ticks", Json.Num (float_of_int r.ticks));
         ("wall_s", num r.wall_s);
         ("minor_words", num r.minor_words);
         ( "counters",
           Json.Obj (List.map (fun (k, v) -> (k, num v)) r.counters) );
       ]
      @ match r.detail with Some d -> [ ("detail", d) ] | None -> [])
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("bench", Json.Str d.bench);
      ("clock", Json.Str d.clock);
      ("runs", Json.List (List.map run d.runs));
    ]

let ( let* ) = Result.bind

let field k o =
  match Json.member k o with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let str k o =
  let* v = field k o in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "%S is not a string" k)

(* A number as [of_float_exact] writes it; every nan decodes to [nan]. *)
let number k v =
  match v with
  | Json.Num _ | Json.Str _ -> (
    match Json.to_float_exact v with
    | Ok f -> Ok (if Float.is_nan f then Float.nan else f)
    | Error _ -> Error (Printf.sprintf "%S is not a number" k))
  | _ -> Error (Printf.sprintf "%S is not a number" k)

let float_field k o =
  let* v = field k o in
  number k v

let rec all = function
  | [] -> Ok []
  | x :: rest ->
    let* x = x in
    let* rest = all rest in
    Ok (x :: rest)

let run_of_json o =
  let* label = str "label" o in
  let in_run = Result.map_error (Printf.sprintf "run %S: %s" label) in
  in_run
    (let* status = str "status" o in
     let* objective = float_field "objective" o in
     let* ticks =
       match Json.member "ticks" o with
       | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
       | Some _ -> Error "\"ticks\" is not an integer"
       | None -> Error "missing field \"ticks\""
     in
     let* wall_s = float_field "wall_s" o in
     let* minor_words = float_field "minor_words" o in
     let* counters =
       match Json.member "counters" o with
       | Some (Json.Obj kvs) ->
         all
           (List.map
              (fun (k, v) -> Result.map (fun f -> (k, f)) (number k v))
              kvs)
       | Some _ -> Error "\"counters\" is not an object"
       | None -> Error "missing field \"counters\""
     in
     Ok
       {
         label;
         status;
         objective;
         ticks;
         wall_s;
         minor_words;
         counters;
         detail = Json.member "detail" o;
       })

let of_json j =
  let* s = str "schema" j in
  if s <> schema then Error (Printf.sprintf "schema %S, expected %S" s schema)
  else
    let* bench = str "bench" j in
    let* clock = str "clock" j in
    let* runs =
      match Json.member "runs" j with
      | Some (Json.List (_ :: _ as rs)) -> all (List.map run_of_json rs)
      | _ -> Error "missing or empty \"runs\" list"
    in
    let labels = List.map (fun r -> r.label) runs in
    match
      List.find_opt
        (fun l -> List.length (List.filter (String.equal l) labels) > 1)
        labels
    with
    | Some l -> Error (Printf.sprintf "duplicate label %S" l)
    | None -> Ok { bench; clock; runs }

let of_string s =
  let* j = Json.of_string s in
  of_json j

(* --- gates ------------------------------------------------------------- *)

(* A named predicate over a document's runs; [Error] explains the
   failure.  Each bench's gates hold for its committed file. *)
type gate = string * (t list -> (unit, string) result)

let check gates runs =
  List.filter_map
    (fun (name, holds) ->
      match holds runs with
      | Ok () -> None
      | Error msg -> Some (Printf.sprintf "%s: %s" name msg)
      | exception Not_found ->
        Some (name ^ ": a run or counter it reads is missing"))
    gates

let enforce ~bench gates runs =
  match check gates runs with
  | [] ->
    Printf.printf "%s gates passed: %s\n" bench
      (String.concat ", " (List.map fst gates))
  | failures ->
    List.iter (Printf.eprintf "BENCH %s GATE FAILED: %s\n" bench) failures;
    exit 1

(* The trajectory gate: no run may spend more than 10% more ticks than
   the same-label run of the baseline.  Wall-only runs (ticks 0 on either
   side) carry no tick trajectory. *)
let trajectory ~baseline runs =
  let regressions =
    List.filter_map
      (fun r ->
        match List.find_opt (fun b -> b.label = r.label) baseline with
        | Some b when r.ticks > 0 && b.ticks > 0 && 10 * r.ticks > 11 * b.ticks
          ->
          Some
            (Printf.sprintf "%s: %d ticks, baseline %d (+%.1f%%)" r.label
               r.ticks b.ticks
               (100.0 *. float_of_int (r.ticks - b.ticks)
               /. float_of_int b.ticks))
        | _ -> None)
      runs
  in
  if regressions = [] then Ok ()
  else
    Error
      ("tick regression above 10% (delete the file to re-baseline): "
      ^ String.concat "; " regressions)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Writes [dir]/BENCH_<bench>.json after the trajectory gate against the
   file already there (none = no baseline), then reads it back and
   requires the same runs.  [Ok path] or the reason it failed. *)
let write ~dir doc =
  let path = Filename.concat dir ("BENCH_" ^ doc.bench ^ ".json") in
  let in_file = Result.map_error (Printf.sprintf "%s: %s" path) in
  in_file
    (let* () =
       if not (Sys.file_exists path) then Ok ()
       else
         match of_string (read_file path) with
         | Error msg -> Error ("the baseline does not decode: " ^ msg)
         | Ok base when base.bench <> doc.bench ->
           Error (Printf.sprintf "the baseline is bench %S" base.bench)
         | Ok base -> trajectory ~baseline:base.runs doc.runs
     in
     let oc = open_out_bin path in
     output_string oc (Json.to_string (to_json doc));
     close_out oc;
     let* back = of_string (read_file path) in
     if
       back.bench = doc.bench && back.clock = doc.clock
       && List.equal equal back.runs doc.runs
     then Ok path
     else Error "decoded runs differ from the runs written")

(* [write], exiting with status 1 on failure. *)
let emit ~dir doc =
  match write ~dir doc with
  | Ok path ->
    Printf.printf "wrote %s (%d runs, validated)\n" path
      (List.length doc.runs)
  | Error msg ->
    Printf.eprintf "BENCH JSON %s\n" msg;
    exit 1
