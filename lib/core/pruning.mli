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

(** {2 The Lemma F.8 label flood}

    The one simulated run of the label-propagation step, exposed with the
    fact engine it drives so the differential suite can check it against
    its list-protocol original. *)

type facts = {
  lc : (int * int, unit) Hashtbl.t;  (** (cluster, label) *)
  le : (int * int, unit) Hashtbl.t;  (** (fc-edge index, label) *)
}

type structure = {
  fc_adj : (int, (int * int) list) Hashtbl.t;
      (** cluster -> (neighbor cluster, fc-edge index) *)
  n_fc : int;  (** number of cluster-forest edges *)
}

val facts_create : unit -> facts

val facts_apply : structure -> facts -> int * int -> bool
(** [facts_apply s facts (cluster, label)] adds the fact and closes the
    sets under the path rule (a label in two clusters marks the
    cluster-forest path between them) and the coupling rule (labels that
    share an edge are identified); returns whether anything changed. *)

type node_state = {
  is_root : bool;
  mine : facts;
  shadow : facts;  (** what the parent has learned from this node *)
  log : (int * int) list;  (** root: state-changing messages, reversed *)
}

val label_flood_protocol :
  Dsf_graph.Graph.t ->
  tree:Dsf_congest.Bfs.tree ->
  structure:structure ->
  initial:(int -> (int * int) list) ->
  (node_state, int * int) Dsf_congest.Sim.flat_protocol
(** The flood {!label_flood} runs.  It steps only nodes with mail or a
    fact left to send. *)

val label_flood :
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  tree:Dsf_congest.Bfs.tree ->
  structure:structure ->
  initial:(int -> (int * int) list) ->
  node_state array
(** Every node floods its [(cluster, label)] facts (seeded by [initial])
    up [tree], one message per round, sending only a fact that still
    changes its parent's view of this node (tracked in [shadow]).  The
    root's [mine] ends with the closed fact sets.  The fact tables are
    mutable and carry no recovery contract, so under a [Chaos] network
    only crash-free plans are masked. *)
