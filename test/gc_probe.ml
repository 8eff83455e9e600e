(* Allocation measurement for the allocation-gate tests. *)

(* Bytes allocated by [f ()], net of the measurement's own boxing.
   [Gc.allocated_bytes] counts direct major-heap allocations too, so
   large arrays are not missed. *)
let allocated_bytes f =
  let measure f =
    let before = Gc.allocated_bytes () in
    f ();
    Gc.allocated_bytes () -. before
  in
  let overhead = measure ignore in
  measure f -. overhead

let allocated_words f =
  allocated_bytes f /. float_of_int (Sys.word_size / 8)
