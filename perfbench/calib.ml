(* Host-speed calibration.

   The benchmark's hosts are shared: the same work on the same inputs
   runs up to 30 % slower for stretches of seconds to minutes, with
   process CPU time equal to wall time (the CPU is slower, the process
   is not descheduled).  A fixed kernel that does not call the solver
   library is timed next to each unit of work; its time against
   [reference_s] gives the host's speed at that moment, and the
   end-to-end times are reported at the reference speed.  A change to
   the solver moves the unit times but not the kernel, so it shows in
   full; a slow stretch of the host moves both and cancels out. *)

(* The kernel: boxed-float list allocation, hashtable updates over a
   working set of about a megabyte, and a float array sort — the mix of
   allocation, pointer chasing and float work the solver stack does. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0.0 in
  for i = 0 to 12_499 do
    let l = List.init 8 (fun j -> float_of_int (i + j)) in
    acc := !acc +. List.fold_left ( +. ) 0.0 l;
    Hashtbl.replace h (i land 4095) l
  done;
  let a = Array.init 10_000 (fun i -> float_of_int (i * 7919 mod 10_007)) in
  Array.sort Float.compare a;
  ignore (Sys.opaque_identity (!acc, a, h))

(* The kernel's wall time on the reference host (a 2-vCPU x86-64 VM at
   its usual speed).  Reported times are in seconds of that host. *)
let reference_s = 0.017

(* A new sample is taken before a unit of work once this much wall time
   has passed since the last one. *)
let period_s = 0.3

(* One calibration sample: the kernel's wall time now. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0

let median l = Statsutil.Stats.median l

(* The factor that converts wall time measured next to sample [i] to
   reference seconds: [reference_s] over the median of the samples
   within [radius] of [i], so one unlucky sample does not set it. *)
let factors ?(radius = 3) samples =
  let n = Array.length samples in
  Array.init n (fun i ->
      let lo = max 0 (i - radius) and hi = min (n - 1) (i + radius) in
      reference_s /. median (Array.to_list (Array.sub samples lo (hi - lo + 1))))

(* The host's speed over a whole run, against the reference. *)
let speed samples = reference_s /. median (Array.to_list samples)
