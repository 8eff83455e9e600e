(** Optional low-overhead event tracing.

    A [sink] is a callback receiving solver events stamped with the
    budget-clock time at which they occurred.  Layers emit through
    {!emit}, which is a no-op when no sink is installed — the disabled
    path costs one [match] per event site, so tracing can stay compiled
    into the hot loops. *)

type event =
  | Phase_start of string          (** e.g. ["greedy"], ["build"], ["search"] *)
  | Phase_end of string * float    (** phase name, duration *)
  | Simplex_refactor               (** full LU refactorization *)
  | Bb_node of { nodes : int; bound : float }
      (** a node was processed; [bound] is its inherited relaxation value *)
  | Bb_incumbent of { objective : float }
      (** incumbent improved (internal minimization sense) *)
  | Bb_bound of { bound : float }
      (** global dual bound improved (internal minimization sense) *)
  | Greedy_admit of { request : int; start : float }
  | Service_decision of {
      request : int;   (** request index in the instance *)
      admitted : bool;
      level : string;  (** degradation rung that decided: ["exact"],
                           ["greedy"] or ["budget"] *)
      ticks : int;     (** work ticks billed to this request's slice *)
    }
      (** emitted by the online embedding service at commit/deny time, in
          arrival order, on the calling domain *)

type sink = elapsed:float -> event -> unit
(** [elapsed] is {!Budget.elapsed} of the solve's budget at emission. *)

val emit : sink option -> Budget.t -> event -> unit

val collector : unit -> sink * (unit -> (float * event) list)
(** An in-memory sink and a function returning everything captured so
    far, in emission order.  Intended for tests and post-mortems; not
    safe to share across domains. *)
