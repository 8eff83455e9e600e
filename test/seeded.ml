(* QCheck properties as Alcotest cases on a fixed seed: every run draws
   the same cases, and a failure names the seed that reproduces it. *)

let to_alcotest ~seed t =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e -> Alcotest.failf "QCheck seed %d: %s" seed (Printexc.to_string e)
  )
