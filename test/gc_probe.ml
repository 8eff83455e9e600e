(* Allocation measurement for the allocation-gate tests. *)

(* Words allocated by [f ()], net of the measurement's own boxing.  The
   minor part is read from [Gc.minor_words], which is exact; the minor
   count inside [Gc.counters] (and so [Gc.allocated_bytes]) lags
   allocations made since the last minor collection in native code.  The
   major part counts direct major-heap allocations, so large arrays are
   not missed; it includes promoted words, which the minor part already
   counted. *)
let allocated_words f =
  let measure f =
    let minor = Gc.minor_words () in
    let _, promoted, major = Gc.counters () in
    f ();
    let _, promoted', major' = Gc.counters () in
    Gc.minor_words () -. minor +. (major' -. major) -. (promoted' -. promoted)
  in
  let overhead = measure ignore in
  measure f -. overhead

let allocated_bytes f =
  allocated_words f *. float_of_int (Sys.word_size / 8)
