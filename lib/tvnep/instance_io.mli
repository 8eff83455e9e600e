(** Plain-text instance files.

    A simple line-oriented format so instances can be stored, shared and
    fed to the [tvnep_solve] CLI.  Grammar (one directive per line, [#]
    comments and blank lines ignored):

    {v
    tvnep 1
    horizon 24.0
    substrate-nodes 9
    node-cap 0 3.5            # node id, capacity
    link 0 1 5.0              # src dst capacity (directed, ids in order)
    request R0 duration 2.5 window 1.0 8.0
      vnode 0 1.5 host 4      # virtual node id, demand [, fixed host]
      vlink 1 0 1.2           # src dst demand
    end
    v}

    Either every virtual node carries a [host] or none does (fixed node
    mappings are all-or-nothing per instance, as in {!Instance.t}). *)

exception Parse_error of int * string
(** Line number and message.  The line is that of the directive at
    fault, also for checks made once the whole file is read (an id out
    of range, a negative capacity, a self-loop, vnode ids out of order,
    a partial host mapping, an unterminated request); it is [0] only
    for a fault of the file as a whole: a missing [tvnep 1] header,
    [horizon] or [substrate-nodes]. *)

val to_string : Instance.t -> string

val of_string : string -> Instance.t
(** @raise Parse_error on malformed input. *)

val save : string -> Instance.t -> unit
(** [save path inst].  @raise Sys_error on I/O failure. *)

val load : string -> Instance.t
(** @raise Parse_error / [Sys_error]. *)
