(** Fixed-size domain pool for parallel fan-out.

    Two entry points share one engine:

    - {!map} / {!map_list}: one-shot embarrassingly parallel fan-out
      (the scenario sweep — one task per scenario × flexibility × model);
    - {!create} / {!run} / {!shutdown}: a {e persistent} pool whose
      [size - 1] worker domains park between batches, for callers that
      dispatch many small rounds (the branch-and-bound batch scheduler
      runs one {!run} per search round; spawn-per-round would dominate
      the node LPs).

    Work is distributed by a shared atomic cursor — no work stealing, no
    channels, no dependencies beyond the stdlib.  Results are returned
    {e in input order}, so output built from them is identical at any
    [jobs] level; combined with deterministic solve budgets
    ({!Budget.create}[ ~deterministic]) bench output is byte-for-byte
    independent of the parallelism.

    Tasks must be domain-safe: no shared mutable state, except scratch
    keyed off the stable worker id {!run} hands each task. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], i.e. a sensible default for
    [--jobs 0] autodetection. *)

val effective_jobs : jobs:int -> int -> int
(** [effective_jobs ~jobs n]: the worker count actually used for [n]
    tasks — [jobs] clamped to [\[1, n\]], with [jobs <= 0] meaning
    autodetect. *)

type t
(** A persistent pool of worker domains. *)

val create : jobs:int -> t
(** Spawn a pool with [jobs] workers total ([jobs <= 0] autodetects via
    {!recommended_jobs}).  [jobs - 1] domains are spawned and park idle;
    the caller's domain is worker [0] and participates in every {!run}.
    Every spawned worker records backtraces exactly when the caller's
    domain did at creation ({!Printexc.backtrace_status}).
    Must be released with {!shutdown} (or use {!with_pool}). *)

val size : t -> int
(** The worker count, caller included. *)

val run : t -> (worker:int -> 'a -> 'b) -> 'a array -> 'b array
(** [run pool f tasks] applies [f] to every task on the pool's workers
    and returns the results in input order.  [~worker] is the stable id
    ([0 .. size-1]) of the domain running that task — use it to index
    per-worker scratch state.  Tasks are claimed from a shared atomic
    cursor, so the task→worker assignment is {e not} deterministic; only
    the result order is.  The first exception raised by any task is
    re-raised after the whole batch has drained (remaining tasks are
    skipped, in-flight ones finish), {e with the backtrace captured at
    the original raise site} — the drain barrier does not mask where the
    job died; the pool stays usable afterwards.
    Must be called from the domain that created the pool, and calls must
    not be nested or overlapped. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent. *)

val with_pool : jobs:int -> (t -> 'b) -> 'b
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down when
    [f] returns or raises. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f tasks] applies [f] to every task and returns the results
    in input order.  [jobs <= 0] autodetects, [jobs = 1] runs sequentially
    in the calling domain (no domain is spawned), [jobs > 1] uses that
    many workers (calling domain included).  The first exception raised by
    any task is re-raised after all workers have been joined. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}. *)
