(** Simple directed multigraphs over integer nodes [0 .. n-1].

    Both the substrate network and the virtual network requests of the
    TVNEP are digraphs of this type; edges carry no payload here — capacity
    and demand functions live in the TVNEP layer, keyed by edge id. *)

type t

type edge = { id : int; src : int; dst : int }

val create : int -> t
(** [create n] is an empty graph on [n] nodes.
    @raise Invalid_argument when [n < 0]. *)

val add_edge : t -> src:int -> dst:int -> int
(** Appends a directed edge and returns its dense id (insertion order).
    Self-loops and parallel edges are allowed (the model layers reject
    self-loops where the paper's formulation requires it).
    @raise Invalid_argument on out-of-range endpoints. *)

val num_nodes : t -> int
val num_edges : t -> int

val edge : t -> int -> edge
(** @raise Invalid_argument on an unknown id. *)

val edges : t -> edge list
(** All edges in id order.  This list and the adjacency lists below are
    built once, on the first read after the last {!add_edge}; a read
    then allocates nothing. *)

val out_edges : t -> int -> edge list
(** Outgoing edges of a node in insertion order — the [δ⁺] of the
    paper. *)

val in_edges : t -> int -> edge list
(** Incoming edges in insertion order — [δ⁻]. *)

type csr = private {
  out_start : int array;
      (** length [n + 1]: node [v]'s out-edges sit at positions
          [out_start.(v) .. out_start.(v+1) - 1] *)
  out_edge : int array;  (** edge id per position, in {!out_edges} order *)
  out_dst : int array;  (** head of the edge at each position *)
  edge_src : int array;  (** source per edge id *)
}
(** A compressed-sparse-row view of the adjacency, for kernels that walk
    it in a loop.  The arrays belong to the graph: do not mutate them. *)

val csr : t -> csr
(** The CSR view, built on first use after the last {!add_edge}. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val nodes : t -> int list

val has_edge : t -> src:int -> dst:int -> bool

val reverse : t -> t
(** Graph with every edge flipped (edge ids preserved). *)

val pp : Format.formatter -> t -> unit
