(* A benchmark run: set-up, timed passes, and the end-to-end metrics
   computed from them. *)

open Workloads

type metric = { m_name : string; value : float; m_unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  lines : string list;  (** human-readable report, printed before the JSON *)
}

let median l = Statsutil.Stats.median l

(* Peak resident set size in MB (VmHWM); the major heap's peak where
   /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec loop () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
      | _ -> loop ()
    in
    loop ()
  in
  try from_proc ()
  with _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

let setup_reps = 9

(* Set-up, [setup_reps] times: generate the inputs and make the untimed
   warm-up call.  Returns the units and the median set-up time. *)
let setup config ~seed ~count =
  let samples =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let units = generate config ~seed ~count in
        warm_up config;
        (units, now () -. t0))
  in
  (fst (List.hd samples), median (List.map snd samples))

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Re-run the first units and count the operations whose fingerprint
   differs from the timed pass: the determinism check behind "identical
   across runs".  Returns (operations re-run, mismatches). *)
let recheck units (a : acc) =
  let again = ops (run_units (take 2 units)) in
  let first = Array.sub (ops a) 0 (Array.length again) in
  (Array.length again, mismatches ~reference:first again)

let count_bad ops = Array.fold_left (fun n op -> if op.bad then n + 1 else n) 0 ops

let mk (m_name, value, m_unit) = { m_name; value; m_unit }

(* One timed pass over [units], taking a calibration sample before a
   unit whenever [Calib.period_s] has passed since the last one.
   Returns the accumulator, the samples and, per unit, the index of its
   sample and how many timed calls it made. *)
let calibrated_pass units =
  let a = create_acc () in
  let samples = ref [] and n_samples = ref 0 and last = ref neg_infinity in
  let per_unit = ref [] in
  List.iter
    (fun u ->
      if now () -. !last >= Calib.period_s then begin
        samples := Calib.sample () :: !samples;
        incr n_samples;
        last := now ()
      end;
      let before = List.length a.calls in
      run_unit a u;
      per_unit := (!n_samples - 1, List.length a.calls - before) :: !per_unit)
    units;
  (a, Array.of_list (List.rev !samples), List.rev !per_unit)

(* The timed calls at the reference host speed: each unit's calls
   scaled by the calibration factor around that unit's sample. *)
let calibrated_calls a samples per_unit =
  let factors = Calib.factors samples in
  let raw = calls a in
  let out = Array.copy raw and k = ref 0 in
  List.iter
    (fun (s, n) ->
      for _ = 1 to n do
        out.(!k) <- raw.(!k) *. factors.(s);
        incr k
      done)
    per_unit;
  out

let sum = Array.fold_left ( +. ) 0.0

(* The untraced run: set-up, one timed pass over the run's units, then
   the determinism re-check.  Times are reported at the reference host
   speed (see Calib); the raw wall time and the host's speed are
   printed. *)
let run config ~seed ~seconds =
  let count = unit_count config ~seconds in
  let units, raw_setup_s = setup config ~seed ~count in
  let a, samples, per_unit = calibrated_pass units in
  let rerun, mismatched = recheck units a in
  let pass_ops = ops a in
  let attempted = Array.length pass_ops + rerun in
  let failed = count_bad pass_ops + mismatched in
  let calls = calibrated_calls a samples per_unit in
  let wall_s = sum calls in
  let host_speed = Calib.speed samples in
  let setup_s = raw_setup_s *. host_speed in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("wall_s", wall_s, "s");
      ("solve_s_p50", median (Array.to_list calls), "s");
      ("arrivals_per_s", float_of_int a.offered /. wall_s, "1/s");
      ("proven_optimal", float_of_int a.proven, "count");
      ("bound_ratio", (a.gap_den +. a.gap_num) /. a.gap_den, "ratio");
      ("objective_total", a.objective, "revenue");
      ("acceptance_ratio", float_of_int a.accepted /. float_of_int a.offered, "ratio");
      ("revenue", a.revenue, "revenue");
      ("ok_ratio", float_of_int (attempted - failed) /. float_of_int attempted, "ratio");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  let lines =
    [
      Printf.sprintf
        "%d units, %d timed calls (the solve_s_p50 samples), %d operations + %d re-checked"
        count (Array.length calls) (Array.length pass_ops) rerun;
      Printf.sprintf "work ticks %d, fingerprint %s" a.ticks (fingerprint pass_ops);
      Printf.sprintf
        "raw wall %.4f s, raw set-up %.4f s, host speed %.4f of the reference (median of %d calibration samples)"
        (wall a) raw_setup_s host_speed (Array.length samples);
    ]
    @
    if a.unconverged > 0 then
      [ Printf.sprintf "path LPs stopped before pricing converged: %d" a.unconverged ]
    else []
  in
  {
    correct = failed = 0;
    attempted;
    failed;
    metrics = List.map mk metrics;
    lines;
  }

(* The result line: one JSON object with exactly the keys correct,
   attempted, failed and metrics. *)
let to_json r =
  let open Statsutil.Json in
  to_compact_string
    (Obj
       [
         ("correct", Bool r.correct);
         ("attempted", Num (float_of_int r.attempted));
         ("failed", Num (float_of_int r.failed));
         ( "metrics",
           Obj
             (List.map
                (fun m ->
                  (m.m_name, Obj [ ("value", Num m.value); ("unit", Str m.m_unit) ]))
                r.metrics) );
       ])
