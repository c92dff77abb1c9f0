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
}

type state
type msg

val protocol :
  ?weight_of:(int -> int) ->
  ?radius:int ->
  Dsf_graph.Graph.t ->
  sources:(int * int) list ->
  (state, msg) Sim.protocol
(** The raw relaxation protocol, exposed for the chaos differential suite
    (hardened-vs-lossless final-state comparison via {!Fault.harden}). *)

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
    int; {!run} then falls back to the classic protocol through the flat
    engine's adapter. *)

val run :
  ?weight_of:(int -> int) ->
  ?radius:int ->
  ?max_rounds:int ->
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  sources:(int * int) list ->
  result * Sim.stats
(** [run g ~sources] with [sources = [(node, initial_dist); ...]].
    [weight_of eid] overrides the weight of edge [eid] (must be >= 0; zero
    weights model edges inside contracted moats).  [radius r] discards any
    path of distance > [r].  Ties are broken towards the smaller source id,
    then the smaller parent id.  Runs under a ["bellman_ford"] span: the
    native {!flat_protocol} when {!Sim.native_ports} holds (adapter
    fallback when it declines), the classic {!protocol} otherwise. *)

val sssp :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  src:int ->
  result * Sim.stats
