(** Weighted undirected graphs with integer weights.

    This is the network substrate for everything in the repository: the
    CONGEST simulator runs on it, the centralized reference algorithms run on
    it, and instances of the Steiner Forest problem are a graph plus terminal
    labels ({!Instance}).

    Nodes are [0 .. n-1].  Edges carry positive integer weights (the paper
    assumes weights polynomially bounded in [n]) and a stable [id] in
    [0 .. m-1] used to represent output edge sets compactly as bit arrays. *)

type edge = private { u : int; v : int; w : int; id : int }

type t

(** {2 Flat CSR view}

    A compressed-sparse-row mirror of the adjacency structure, built once at
    construction and shared by every consumer (notably the flat simulator
    engine's arena accounting).  Each of the [2m] {e directed positions}
    describes one direction of one edge; position [p] lives in its source
    node's row [off.(v) .. off.(v+1) - 1] and aligns index-for-index with
    {!adj}: position [off.(v) + i] is [(adj g v).(i)].

    The arrays are physically mutable (plain [int array]) but logically
    immutable — treat them as read-only. *)
type csr = {
  off : int array;  (** row offsets, length [n + 1] *)
  dst : int array;  (** neighbor id per position, length [2m] *)
  wgt : int array;  (** edge weight per position *)
  eid : int array;  (** edge id per position *)
  twin : int array;
      (** position of the reverse direction of the same edge; an
          involution without fixed points *)
  srt : int array;
      (** per-row permutation of positions sorted by neighbor id (the
          index {!csr_pos} binary-searches) *)
}

val make : n:int -> (int * int * int) list -> t
(** [make ~n edges] builds a graph on [n] nodes from [(u, v, w)] triples.
    Raises [Invalid_argument] on self-loops, duplicate edges, endpoints out
    of range, or non-positive weights. *)

val make_arr : n:int -> (int * int * int) array -> t
(** Array-based construction path: identical validation and edge-id
    assignment to {!make} (ids follow array order) without materializing
    intermediate lists — the constructor {!Gen} uses so corpus-scale
    instances build in O(m). *)

val first_invalid_edge : n:int -> (int * int * int) array -> (int * string) option
(** The index of the first triple {!make_arr} rejects, with the message it
    raises, or [None] if every triple is valid.  Lets a parser map the
    failure back to the line the triple came from. *)

val unweighted : n:int -> (int * int) list -> t
(** All edges get weight 1. *)

val unweighted_arr : n:int -> (int * int) array -> t
(** Array-based {!unweighted}. *)

val n : t -> int
val m : t -> int
val edges : t -> edge array
val edge : t -> int -> edge
(** Edge by id. *)

val adj : t -> int -> (int * int * int) array
(** [adj g v] is the array of [(neighbor, weight, edge_id)] for [v]. *)

val csr : t -> csr
(** The flat CSR view, built on first use and memoized on the graph: every
    call returns the same physical value, so multi-phase algorithms (and the
    flat engine's per-message accounting) share one view instead of
    reconstructing it per primitive call.  The memo write is a benign race
    under domains (equal views, atomic pointer store), but callers that fan
    out domains should force it once up front — {!Dsf_congest.Sim.run_flat}
    does. *)

val params : t -> compute:(t -> int * int * int) -> int * int * int
(** The graph's memo slot for its [(D, WD, s)] triple: returns the stored
    triple, or runs [compute g] once, stores its result and returns it.  A
    raising [compute] stores nothing.  Only {!Paths.parameters} fills it,
    always with its own all-sources sweep, so every later call returns the
    physically same triple.  The write is the same benign race as {!csr}'s; callers that fan
    out domains force it first ({!Dsf_core.Rand_dsf.run} does). *)

val csr_pos : t -> src:int -> dst:int -> int
(** [csr_pos g ~src ~dst] is the directed CSR position of the edge from
    [src] to [dst], or [-1] if no such edge exists (or [src] is out of
    range).  O(log degree) binary search, no allocation (beyond forcing the
    memo on first use). *)

val pos : csr -> src:int -> dst:int -> int
(** {!csr_pos} on an already-forced view — the hot-path variant for inner
    loops that resolve one position per delivered message. *)

val degree : t -> int -> int
val max_degree : t -> int
val total_weight : t -> int
val max_weight : t -> int

val max_total_weight : int
(** 2^50: the largest total edge weight an input may carry.  Ints hold 62
    value bits, and the widest integer quantities the algorithms form are
    the total weight W times less than 2^12:
    - the virtual-tree level radii [beta * 2^i] ({!Dsf_embed.Virtual_tree}
      of the randomized algorithms): beta < 2 in 2^10 fixed point, and
      2^levels < 2 WD <= 2 W, so radii stay below 2^12 W;
    - {!Dsf_core.Det_sublinear} multiplies every weight by its scale
      8 eps_den <= 2^9 ({!Dsf_core.Det_sublinear.max_eps_den} is derived
      from this bound) and then adds scaled distances three at a time and
      halves them (2^3 more).
    The dyadic moat radii ({!Dsf_core.Frac}) stay assertion-guarded: a
    deep enough merge cascade can still exhaust them below the bound.
    {!Io} rejects a file over the bound, and the CLI rejects generator
    flags that could cross it. *)

val over_weight_bound : int list -> int option
(** [over_weight_bound ws]: the index of the first of the positive
    weights [ws] at which their running total exceeds
    {!max_total_weight}, or [None] if the total stays within it.  Never
    overflows. *)

val endpoints : t -> int -> int * int
(** Endpoints of an edge by id. *)

val other_endpoint : t -> eid:int -> int -> int
(** [other_endpoint g ~eid v] is the endpoint of edge [eid] that is not [v]. *)

val find_edge : t -> int -> int -> int option
(** Edge id connecting two given nodes, if any. *)

val is_connected : t -> bool

val connected_components : t -> int array
(** [connected_components g] assigns each node a component representative. *)

val edge_set_weight : t -> bool array -> int
(** Total weight of the edges whose id is set in the given bit array. *)

val edge_list_of_set : t -> bool array -> edge list

val subgraph_union_find : t -> bool array -> Dsf_util.Union_find.t
(** Union-find over nodes connected by the selected edge set. *)

val pp : Format.formatter -> t -> unit
