(** The fast pruning routine of Appendix F.3 (Corollary F.10): given a
    forest F solving a DSF-IC instance, select its minimal solving
    subforest in O~(σ + k + D) rounds.

    Pipeline, following the paper's steps:

    + clusters: the trees of F are partitioned into O(σ)-many subtree
      clusters by the matching-based growing of Lemma F.7 (iterations
      charged O~(σ) each);
    + the contracted cluster forest (C, F_C) is made globally known
      (simulated pipelined upcast + broadcast, O(D + σ));
    + label propagation (Lemma F.8): every node floods (cluster, label)
      facts up the BFS tree under the paper's redundancy discipline — a
      node sends only messages that would still change its parent's state,
      tracked with a shadow copy; path and closure rules run locally.  The
      root ends with the label set l_e of every inter-cluster edge
      (simulated; the redundancy cap makes this O(D + σ + k));
    + the root's state is re-broadcast in the same encoding (simulated);
    + inter-cluster edges with l_e ≠ ∅ are selected, their endpoints
      inherit l_e, and each cluster selects its minimal internal subtrees
      (Lemma F.6, charged O(σ + k)).

    The result equals the unique minimal solving subforest, i.e.
    {!Dsf_graph.Instance.prune} — which the tests assert. *)

type result = {
  pruned : bool array;
  clusters : int;  (** |C| *)
  cluster_edges : int;  (** |F_C| *)
}

val run :
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Instance.ic ->
  f:bool array ->
  sigma:int ->
  result
(** [f] must be a feasible forest for the instance.  Every simulated run
    (BFS, label collection, cluster gossip, the label flood, the Lemma
    F.6 mark/unmark protocol) uses [env], so its telemetry and flight
    recorder see the whole routine, and its rounds and its one charge
    (the Lemma F.7 matchings) land in the caller's [env] ledger. *)
