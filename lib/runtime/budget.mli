(** Solve budgets: one clock, one deadline, threaded through every layer.

    A budget is created once per top-level solve and handed down explicitly
    — greedy seeding, model build, branch-and-bound and every node LP all
    consume the {e same} clock, so a time limit bounds the whole pipeline
    instead of each layer billing its own [gettimeofday] span.

    Two clock modes:

    - {b wall}: elapsed real seconds (the default);
    - {b deterministic}: elapsed time is defined as [work ticks / rate],
      where instrumented layers call {!tick} on units of work (the simplex
      bills each pivot's actual operations — basis solves at their
      representation cost, pricing per column examined — and
      branch-and-bound once per node).  Under a
      deterministic budget a solve makes exactly the same decisions — and
      reports exactly the same "runtime" — on any machine, at any level of
      scenario parallelism.  This is what makes the bench tables byte-for-
      byte reproducible (the same idea as the work-unit limits of
      commercial solvers).

    Budgets nest: {!sub} carves out a child with its own (earlier)
    deadline on the {e shared} clock, so "give the exact pass at most 10s
    of whatever remains" composes correctly.

    Concurrency: tick counters are atomic, so workers on several domains
    may bill work against one shared budget and the total never loses
    updates.  But a shared clock read mid-flight still depends on how the
    workers interleave; code that needs its {e decisions} (deadline and
    limit checks) to be identical at any parallelism level gives each unit
    of work a {!fork} — a private snapshot of the clock — and {!join}s the
    forks back into the parent in a fixed, scheduling-independent order. *)

type t

val create :
  ?deterministic:float ->
  ?time_limit:float ->
  ?node_limit:int ->
  ?iter_limit:int ->
  unit ->
  t
(** A fresh budget whose clock starts now.

    [deterministic] switches the clock to tick mode with the given rate
    (ticks per reported "second"; must be positive).  [time_limit] is in
    clock seconds ([infinity] = none), [node_limit] caps branch-and-bound
    nodes and [iter_limit] caps total simplex iterations (both default to
    [max_int] = none). *)

val sub : ?time_limit:float -> ?node_limit:int -> ?iter_limit:int -> t -> t
(** A child budget on the same clock.  Its deadline starts counting now
    and is capped by the parent's remaining time; node and iteration
    limits default to the parent's.  Ticks recorded against the child are
    visible to the parent (one clock). *)

val fork : ?iter_limit:int -> t -> t
(** A snapshot of this budget on a {e private} clock.  The fork sees the
    parent's elapsed time and deadline as of the call, but ticks recorded
    against it advance only its own view — forks of the same budget are
    fully independent, so concurrent workers each evaluating one fork make
    the same deadline decisions regardless of scheduling.  In wall mode
    the fork shares the parent's start instant (real time keeps flowing);
    in deterministic mode its clock is frozen at the parent's current tick
    count.  [iter_limit] optionally overrides the per-fork simplex
    iteration cap.  Fold the work back with {!join}. *)

val join : into:t -> t -> unit
(** [join ~into fork] bills the ticks recorded on [fork] since it was
    created against [into]'s clock.  Joining forks in a fixed order makes
    the parent's tick totals — and hence deterministic elapsed time —
    independent of how the forked work was scheduled. *)

val tick : ?n:int -> t -> unit
(** Record [n] (default 1) units of work against the clock.  Advances
    deterministic time; in wall mode it only feeds the {!ticks} counter. *)

val charge : t -> int -> unit
(** [charge t n] is [tick ~n t] without the optional argument, which
    allocates at every call: for kernels that bill several times per
    simplex pivot. *)

val ticks : t -> int
(** Work units recorded on the underlying clock so far. *)

val elapsed : t -> float
(** Clock seconds since this budget was created. *)

val remaining : t -> float
(** Clock seconds until the deadline; [infinity] when unlimited, clamped
    at [0.0] once exhausted. *)

val out_of_time : t -> bool

val time_limit : t -> float
(** The configured relative limit ([infinity] = none). *)

val node_limit : t -> int
(** The configured branch-and-bound node cap ([max_int] = none). *)

val iter_limit : t -> int
(** The configured simplex iteration cap ([max_int] = none). *)

val nodes_exhausted : t -> int -> bool
(** [nodes_exhausted b n]: has a search that processed [n] nodes used up
    the node budget? *)

val iters_exhausted : t -> int -> bool
(** Same for a cumulative simplex iteration count. *)

val is_deterministic : t -> bool
