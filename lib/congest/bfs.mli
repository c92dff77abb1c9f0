(** Distributed BFS-tree construction (flood from the root), the basic
    building block used by every algorithm in the paper for global
    coordination.  Takes O(D) simulated rounds. *)

type tree = {
  root : int;
  parent : int array;  (** parent node id; [-1] for the root *)
  depth : int array;
  children : int list array;
  height : int;  (** max depth = eccentricity of the root *)
}

val flat_protocol : n:int -> root:int -> (int, int) Sim.flat_protocol
(** The BFS flood, written natively against the flat-core engine: node
    state is one immediate int (a {!Dsf_util.Pack} layout of announced
    flag, depth, and parent + 1, with -1 as the unreached sentinel),
    messages are bare depths, and unreached nodes report done until mail
    arrives (so the sparse scheduler only ever steps the wavefront).  The
    parent choice is timing-sensitive: a node adopts the smallest-id
    neighbor heard from in the {e first} round a message arrives.  [n] is
    the node count of the graph the protocol will run on — the packed
    layout is sized from it once, at construction, so the step body
    captures only immutable fields (the typed domain-race rule's
    ownership contract); [fp_init] raises [Invalid_argument] on a graph
    of a different size.  It is the zero-allocation exemplar the
    flat-engine benchmarks run. *)

val flat_state_parent_depth : n:int -> int -> (int * int) option
(** Decodes a {!flat_protocol} state into [(parent, depth)]; [None] if
    the node was never reached.  [n] is the node count of the graph the
    state came from. *)

val build : ?env:Sim.env -> Dsf_graph.Graph.t -> root:int -> tree
(** Raises [Invalid_argument] if the graph is disconnected.  Runs
    {!flat_protocol} through {!Fault.sim_run} under a ["bfs"] span (see
    {!Sim} for the run environment). *)

val max_id_root : Dsf_graph.Graph.t -> int
(** The conventional root choice of the paper's appendix: the node with the
    largest identifier. *)
