(** Distributed multi-source Bellman-Ford, the primitive behind the paper's
    Voronoi decompositions (Definition 4.6, Lemma 4.8) and the virtual-tree
    construction of Section 5.

    Sources start with given initial distances (used for reduced weights /
    head starts); every node converges to the closest source under the
    lexicographic order (distance, source id) — exactly the tie-breaking of
    Definition 4.6.  An optional per-edge weight override implements the
    reduced weight functions Ŵ_j, and an optional radius cap implements the
    bounded-radius exploration of the tree embedding (B(v, β·2^i)).

    The number of simulated rounds is the number of Bellman-Ford iterations
    until stabilization — the quantity the paper identifies with [s]. *)

type result = {
  dist : int array;  (** distance to the closest source; [max_int] if none *)
  src_of : int array;  (** closest source; [-1] if unreached *)
  parent : int array;
      (** predecessor towards the source; [-1] at sources / unreached *)
  hops : int array;  (** tree depth in hops; [max_int] if unreached *)
  rounds : int;
      (** rounds the run took to stabilise (the paper's [s] when run from
          every node); the run's other costs are read from [env] *)
}

type state = {
  dist : int;
  src : int;  (** closest source so far; [-1] if unreached *)
  parent : int;
  hops : int;
  dirty : bool;  (** must announce the label next round *)
}

type msg

val protocol :
  ?weight_of:(int -> int) ->
  ?radius:int ->
  Dsf_graph.Graph.t ->
  sources:(int * int) list ->
  (state, msg) Sim.flat_protocol
(** The relaxation protocol with boxed messages and an immutable state
    record.  It is the fallback for inputs whose labels do not pack into
    an immediate int (where {!flat_protocol} returns [None]), and the only
    implementation that runs for them. *)

type flat_state
(** Packed-state type of {!flat_protocol}; decode through {!run}. *)

val flat_protocol :
  ?weight_of:(int -> int) ->
  ?radius:int ->
  Dsf_graph.Graph.t ->
  sources:(int * int) list ->
  (flat_state, int) Sim.flat_protocol option
(** The native flat-engine port of {!protocol}: messages are one immediate
    int each (a {!Dsf_util.Pack} layout of distance, source, hops — the
    distance field sized by the instance's sound bound min(radius, max d0 +
    (n-1)·max w)), node state is a mutable record updated in place, and
    incoming edge weights resolve through the CSR view.  Rounds, messages,
    bits, and final labels are bit-identical to {!protocol} (differential
    suite enforced).  Returns [None] when the widths exceed an immediate
    int; {!run} then runs {!protocol} instead. *)

val run :
  ?weight_of:(int -> int) ->
  ?radius:int ->
  ?max_rounds:int ->
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  sources:(int * int) list ->
  result
(** [run g ~sources] with [sources = [(node, initial_dist); ...]].
    [weight_of eid] overrides the weight of edge [eid] (must be >= 0; zero
    weights model edges inside contracted moats).  [radius r] discards any
    path of distance > [r].  Ties are broken towards the smaller source id,
    then the smaller parent id.  Runs through {!Fault.sim_run} under a
    ["bellman_ford"] span: {!flat_protocol} when it accepts the input,
    {!protocol} when it declines.  The choice depends on the input
    alone. *)

val sssp :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  src:int ->
  result
