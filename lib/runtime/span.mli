(** Span-based profiling on the solve budget's work clock.

    A {!recorder} captures a tree of named, nested spans.  Every span
    records the budget's {e work-clock tick} count at entry and exit
    (via {!Budget.ticks} of the budget the instrumented layer already
    bills its work to), an optional wall-clock time, the domain id of
    the worker that ran it, and its nesting depth.  Instrumentation
    sites take a [recorder option] and cost one [match] when profiling
    is off, so spans stay compiled into the hot loops.

    {b Determinism.}  Spans never read their own clock: tick stamps come
    from the existing work clock, so a profiled solve makes exactly the
    same decisions — and reports exactly the same tick totals — as an
    unprofiled one.  Parallel layers (the branch-and-bound's node
    batches) give each task a {e child} recorder alongside its
    {!Budget.fork}; at merge time the child is {!graft}ed into the
    parent at the parent's current tick count, in the same fixed order
    the forks {!Budget.join} — so the merged timeline tiles exactly and
    the exported spans (names, tick stamps, ordering; everything but the
    worker-domain tag) are byte-identical at every [jobs] level.

    Recorders are not domain-safe: a recorder is written by one domain
    at a time (a child recorder by the worker evaluating its task, the
    parent by the merging domain). *)

(** One completed span.  Tick stamps [t0]/[t1] are on the recorder's
    local timeline until the recorder is grafted; [spans] of the root
    recorder are on the solve's merged timeline. *)
type span = {
  name : string;
  domain : int;    (** worker-domain tag (0 = the solve's main domain) *)
  depth : int;     (** nesting depth at entry (root spans have depth 0) *)
  t0 : int;        (** work-clock ticks at entry *)
  t1 : int;        (** work-clock ticks at exit *)
  wall0 : float;   (** wall seconds at entry; [nan] when not captured *)
  wall1 : float;   (** wall seconds at exit; [nan] when not captured *)
  seq : int;       (** entry order; parents precede their children *)
}

type recorder

val create : ?wall:bool -> ?domain:int -> ?base:int -> unit -> recorder
(** A fresh recorder.  [wall] additionally stamps spans with wall-clock
    times (default off — wall stamps vary run to run, so deterministic
    exports leave them out).  [domain] tags subsequently recorded spans
    (default 0, see {!set_domain}).  [base] is the tick-timeline origin
    used by {!graft} to rebase this recorder's spans — pass
    [Budget.ticks fork] when creating a child recorder for a forked
    task; it defaults to 0, which keeps a root recorder's stamps as the
    raw budget tick values. *)

val set_domain : recorder -> int -> unit
(** Tag spans recorded from now on with this worker-domain id.  Workers
    call this on their child recorder once they know their id. *)

val enter : recorder option -> Budget.t -> string -> unit
(** Open a span.  No-op on [None]. *)

val exit : recorder option -> Budget.t -> unit
(** Close the innermost open span.  No-op on [None] or when no span is
    open. *)

val with_ : recorder option -> Budget.t -> string -> (unit -> 'a) -> 'a
(** [with_ prof budget name f] runs [f] inside a [name] span; the span
    is closed when [f] returns {e or raises} — instrumented code that
    escapes with an exception (budget-stop exceptions, solver failures)
    leaves the recorder balanced. *)

val leaf : recorder option -> name:string -> t0:int -> t1:int -> unit
(** Record an already-measured leaf span at the current nesting depth.
    No-op on [None].  Used by layers that accumulate tick costs per work
    category as they run and attribute them as sub-intervals of the
    enclosing span when it closes (the simplex's factorize/FTRAN/BTRAN/
    pricing breakdown) — one leaf per category per enclosing span keeps
    the span count bounded where per-call spans would explode it. *)

val open_spans : recorder -> int
(** Number of currently open spans (0 = balanced). *)

val graft : into:recorder -> at:int -> recorder -> unit
(** [graft ~into ~at child] appends the child's completed spans to
    [into], rebasing each tick stamp by [at - base] (the child's
    recorded work lands at tick [at] of the parent timeline — pass the
    parent budget's tick count {e before} the matching {!Budget.join}),
    deepening each span under [into]'s currently open spans, and
    renumbering [seq] so graft order is preserved.  The child must be
    balanced (no open spans).

    @raise Invalid_argument when the child still has open spans. *)

val spans : recorder -> span list
(** Completed spans in deterministic order ([seq], i.e. entry order —
    parents before their children). *)

val total_ticks : span list -> int
(** Ticks covered by the top-level (depth-0) spans — with a single root
    span, exactly the solve's tick delta. *)

(** {2 Aggregated phase tree} *)

(** Aggregation of every occurrence of the same phase path (the stack of
    span names from a root to this phase). *)
type tree = {
  tree_name : string;
  total : int;         (** ticks inside this phase, children included *)
  self : int;          (** [total] minus the children's [total]s *)
  calls : int;         (** number of span occurrences merged here *)
  tree_wall : float;   (** wall seconds, [nan] when not captured *)
  children : tree list;
}

val tree_of : span list -> tree list
(** The aggregated top-down phase tree.  Children are ordered by first
    entry.  For any tree, the sum of [self] over all nodes equals the
    sum of the roots' [total]s — per-phase self ticks partition the
    solve's total work ticks exactly. *)

val sum_self : tree list -> int
(** Σ [self] over the whole forest (= Σ roots' [total]). *)

val render_tree : ?rate:float -> tree list -> string
(** Human-readable top-down phase tree: per phase the total and self
    ticks, their percentage of the overall total, and the call count.
    [rate] (ticks per budget second) additionally renders tick counts as
    budget seconds. *)

val domain_ticks : span list -> (int * int) list
(** Ticks attributed per worker-domain tag (self ticks of each span
    summed onto its domain), sorted by domain id.  Note the {e tags}
    depend on which worker ran each task; the tick totals do not. *)

(** {2 Exporters}

    Both exporters are deterministic: spans are emitted in [seq] order
    with tick-derived timestamps; wall stamps are only included when the
    recorder captured them. *)

val schema_version : int
(** Version carried by both export formats (1). *)

val to_chrome : ?rate:float -> span list -> Statsutil.Json.t
(** A Chrome [chrome://tracing] / Perfetto document: one complete ("X")
    event per span with [ts]/[dur] in microseconds derived from ticks
    ([ticks / rate * 1e6]; [rate] defaults to 1.0, i.e. one tick = one
    microsecond), [tid] the domain tag, and the raw tick stamps under
    ["args"]. *)

val to_jsonl : ?rate:float -> span list -> string
(** Newline-delimited JSON: a header line
    [{"schema":"tvnep-span/1","schema_version":1,"rate":...}] followed
    by one object per span in [seq] order with [name], [domain],
    [depth], [t0], [t1], [ticks] and — when captured — [wall0]/[wall1]
    members. *)
