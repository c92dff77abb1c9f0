(** Cole-Vishkin deterministic coin tossing ([6] in the paper): 3-coloring
    a rooted forest in O(log* n) rounds, and the maximal-matching
    construction on top of it.

    This is the symmetry-breaking primitive behind the paper's
    deterministic matching steps (Step 3bii of the sublinear algorithm,
    Lemma F.4, and the cluster growing of Lemma F.7): small moats/clusters
    each propose one edge, the proposal graph is a pseudo-forest, a CV
    coloring makes it 3-colored in O(log* n) rounds, and iterating over the
    three color classes yields a maximal matching.

    Both routines run as real simulated protocols over the tree edges
    (parent pointers into the communication graph), under the run
    environment [?env] (see {!Sim}). *)

val three_color :
  ?env:Sim.env -> Dsf_graph.Graph.t -> parent:int array -> int array * Sim.stats
(** [three_color g ~parent] 3-colors the rooted forest given by [parent]
    ([-1] marks roots; every (v, parent v) pair must be an edge of [g]).
    Returns colors in {0, 1, 2} with adjacent tree nodes colored
    differently.  O(log* n + 1) simulated rounds. *)

val maximal_matching :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  parent:int array ->
  (int * int) list * Sim.stats
(** A maximal matching of the rooted forest's (child, parent) edges: built
    from the 3-coloring by letting each color class propose in turn.
    Returns matched (child, parent) pairs; no node appears twice, and no
    tree edge has both endpoints unmatched. *)
