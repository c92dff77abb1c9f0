(** Distributed least-elements (LE) list construction — the engine of the
    Khan et al. tree embedding used by the paper's randomized algorithm
    (Section 5, and footnote 7).

    Every node draws a random rank (a permutation of 0..n-1; higher wins).
    The LE list of [v] is the staircase of pairs (w, wd(v, w)) such that no
    higher-ranked node is strictly closer: reading the list by increasing
    distance, ranks strictly increase.  The list answers "who is the
    highest-ranked node within distance r of me?" for every r at once —
    which is exactly what the virtual-tree ancestors v_i = argmax rank over
    B(v, beta * 2^i) need.  W.h.p. each list has O(log n) entries.

    Construction is a pruned Bellman-Ford, genuinely simulated: accepted
    entries propagate to neighbors one per round per edge (pipelining), and
    an entry dominated at an intermediate node is dominated at every node
    behind it, so pruning is sound.  Each node also records the neighbor an
    entry arrived from, yielding next-hop routing toward every node in its
    list (the "next hop pointers" of Section 5). *)

type entry = {
  target : int;  (** the listed node w *)
  dist : int;  (** wd(v, w) *)
  rank : int;  (** rank of w (redundant but handy) *)
  next_hop : int;  (** neighbor towards w; -1 if w = v *)
}

type t = {
  ranks : int array;  (** rank per node: a permutation of 0..n-1 *)
  lists : entry list array;
      (** per node, ascending distance (and ascending rank) *)
}

type node_state
type msg

val flat_protocol :
  ranks:int array -> (node_state, msg) Dsf_congest.Sim.flat_protocol
(** The construction for the given ranks (one per node, a permutation of
    0..n-1), as {!build} runs it.  Each node keeps its accepted entries
    in one append-only log read by one cursor per neighbor, and is done
    once no cursor has a live entry left ahead of it; only nodes with
    mail or a pending entry are stepped. *)

val build : ?env:Dsf_congest.Sim.env -> Dsf_util.Rng.t -> Dsf_graph.Graph.t -> t
(** Draws ranks from the given RNG and runs the simulated construction
    under the run environment [env] (see {!Dsf_congest.Sim}). *)

val highest_within : t -> int -> int -> entry option
(** [highest_within t v r]: the highest-ranked node within weighted distance
    [r] of [v], i.e. the last list entry with [dist <= r]. *)

val max_list_length : t -> int

val verify_against : Dsf_graph.Graph.t -> t -> bool
(** Centralized re-computation of all LE lists; true iff they match.
    O(n * m log n) — test use only. *)
