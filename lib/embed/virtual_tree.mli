(** The randomized virtual-tree embedding of Khan et al. as used in
    Section 5: each graph node is a leaf with ancestors v_0, ..., v_L, where
    v_i is the highest-ranked node within weighted distance beta * 2^i of v,
    beta drawn uniformly from [1, 2], and L = ceil(log2 WD) — here
    ceil(log2) of a simulated upper bound on WD, which only adds levels
    whose balls already cover the graph.  The virtual
    edge (v_{i-1}, v_i) has weight beta * 2^i.

    The optional truncation at a set S (the sqrt(n) highest-ranked nodes)
    implements the s > sqrt(n) regime: each leaf's chain is cut at the first
    level whose ball contains a node of S, and the leaf instead connects to
    its closest S node (Section 5, step 1).

    Ancestors are read off the LE lists; next-hop routing tables toward
    every ancestor come from the LE-list construction.  [tree_distance]
    measures the leaf-to-leaf distance through the per-leaf chains (used by
    the E11 distortion experiment). *)

type t = {
  le : Le_list.t;
  beta_num : int;  (** beta = beta_num / 1024, in [1024, 2048) *)
  levels : int;  (** L *)
  ancestors : int array array;
      (** [ancestors.(v)] has length [levels + 1]; entry i is v_i's node id.
          With truncation, entries at levels >= i_v repeat the closest
          S-node. *)
  trunc_level : int array;  (** i_v; [levels + 1] when no truncation *)
  s_set : int list;
      (** S in descending rank, empty when not truncated; v is in S iff
          its rank is at least n - |S| *)
  closest_s : int array;  (** closest S node per node; -1 when S empty *)
  voronoi_parent : int array;
      (** next hop towards the closest S node; -1 when S empty *)
}

val beta_ball : t -> int -> int
(** [beta_ball t i] = floor(beta * 2^i): the ball radius at level i
    (distances are integers, so flooring is exact for membership tests). *)

val build :
  ?env:Dsf_congest.Sim.env ->
  Dsf_util.Rng.t ->
  ?truncate_at:int ->
  wd_bound:int ->
  Dsf_graph.Graph.t ->
  t
(** [build rng ?truncate_at ~wd_bound g] simulates the LE lists (plus the
    closest-S Voronoi when truncating) and returns the tree.
    [truncate_at] is |S| (e.g. sqrt n); omit it for the full tree.
    [wd_bound] is an upper bound on WD that every node already knows (the
    algorithms take it from {!Dsf_congest.Params.estimate}); the tree has
    L = ceil(log2 wd_bound) levels (at least 1), so its top ball covers
    the graph.  With the estimate's bound of at most 2 WD, L is at most
    ceil(log2 WD) + 1.  Every simulated run uses the run environment
    [env], whose ledger counts their rounds. *)

val route_next_hop : t -> int -> int -> int option
(** [route_next_hop t v target]: next hop from [v] on the recorded
    least-weight path toward [target] (an ancestor of some node). *)

val paths_per_node : t -> int array
(** For each node, the number of distinct (target) shortest-path trees it
    participates in — the congestion quantity the paper bounds by
    O(log n) w.h.p. *)

val tree_distance : t -> int -> int -> float
(** Distance between two leaves through their ancestor chains (first common
    ancestor at any level pair); the embedding's metric, >= wd and
    O(log n) * wd in expectation. *)

val max_ancestor_distance : t -> int
(** max over nodes v and levels i of wd(v, v_i) — every routing path's
    weighted length is bounded by this. *)
