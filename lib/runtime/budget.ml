(* The clock is shared between a budget and all its sub-budgets; only the
   deadline/limit bookkeeping is per budget.  In deterministic mode the
   clock is a work-tick counter and "seconds" are ticks / rate.

   Tick counters are atomic so that concurrent workers can bill work
   against one shared budget without losing updates: the total is then
   independent of the interleaving (addition commutes), which is what
   keeps deterministic work-clock totals invariant under parallelism.
   Mid-flight *reads* of a concurrently ticked clock still depend on
   scheduling; layers that need decisions (deadlines, limit checks) to be
   reproducible under parallelism isolate each unit of work on a {!fork}
   and {!join} the forks back in a fixed order. *)
type clock =
  | Wall of { start : float; wall_ticks : int Atomic.t }
  | Ticks of { rate : float; count : int Atomic.t }

type t = {
  clock : clock;
  origin : float;  (* clock time at creation; elapsed is relative to it *)
  base : int;      (* clock ticks at creation; {!join} folds back the delta *)
  time_limit : float;
  node_limit : int;
  iter_limit : int;
}

let clock_elapsed = function
  | Wall { start; _ } -> Clock.now () -. start
  | Ticks { rate; count } -> float_of_int (Atomic.get count) /. rate

let clock_ticks = function
  | Wall { wall_ticks; _ } -> Atomic.get wall_ticks
  | Ticks { count; _ } -> Atomic.get count

let create ?deterministic ?(time_limit = infinity) ?(node_limit = max_int)
    ?(iter_limit = max_int) () =
  let clock =
    match deterministic with
    | None -> Wall { start = Clock.now (); wall_ticks = Atomic.make 0 }
    | Some rate ->
      if not (rate > 0.0) then invalid_arg "Budget.create: rate must be > 0";
      Ticks { rate; count = Atomic.make 0 }
  in
  { clock; origin = 0.0; base = 0; time_limit; node_limit; iter_limit }

let elapsed t = clock_elapsed t.clock -. t.origin

let remaining t =
  if t.time_limit = infinity then infinity
  else Float.max 0.0 (t.time_limit -. elapsed t)

let sub ?time_limit ?node_limit ?iter_limit t =
  let time_limit =
    match time_limit with
    | None -> remaining t
    | Some l -> Float.min l (remaining t)
  in
  {
    clock = t.clock;
    origin = clock_elapsed t.clock;
    base = clock_ticks t.clock;
    time_limit;
    node_limit = Option.value node_limit ~default:t.node_limit;
    iter_limit = Option.value iter_limit ~default:t.iter_limit;
  }

let charge t n =
  match t.clock with
  | Wall w -> ignore (Atomic.fetch_and_add w.wall_ticks n)
  | Ticks c -> ignore (Atomic.fetch_and_add c.count n)

let tick ?(n = 1) t = charge t n

let ticks t = clock_ticks t.clock

(* A fork is a snapshot of this budget on a *private* clock: it sees the
   parent's elapsed time and deadline as of now, and work ticked against
   it advances only its own view.  Two forks of the same budget are fully
   independent, so a batch of tasks evaluated on forks makes identical
   deadline decisions no matter how the tasks are scheduled. *)
let fork ?iter_limit t =
  let clock =
    match t.clock with
    | Wall w -> Wall { start = w.start; wall_ticks = Atomic.make 0 }
    | Ticks c -> Ticks { rate = c.rate; count = Atomic.make (Atomic.get c.count) }
  in
  {
    t with
    clock;
    base = clock_ticks clock;
    iter_limit = Option.value iter_limit ~default:t.iter_limit;
  }

let join ~into b =
  let delta = clock_ticks b.clock - b.base in
  if delta > 0 then tick ~n:delta into

let out_of_time t = t.time_limit < infinity && elapsed t > t.time_limit

let time_limit t = t.time_limit

let node_limit t = t.node_limit

let iter_limit t = t.iter_limit

let nodes_exhausted t n = n > t.node_limit

let iters_exhausted t n = n >= t.iter_limit

let is_deterministic t =
  match t.clock with Wall _ -> false | Ticks _ -> true
