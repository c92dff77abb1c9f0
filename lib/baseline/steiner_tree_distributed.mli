(** Distributed 2-approximate Steiner Tree (single input component) — the
    Chalermsook-Fakcharoenphol reference point ([4] in the paper, O~(n)
    rounds), implemented in Mehlhorn's Voronoi form with the repository's
    simulated primitives:

    + multi-source Bellman-Ford from all terminals: every node learns its
      closest terminal, distance and parent (simulated, O(s) rounds);
    + one boundary-exchange round: each Voronoi boundary edge (u, v)
      witnesses a terminal pair at distance d(t_u, u) + w + d(v, t_v);
    + the pipelined Kruskal filter (Lemma 4.14 machinery) selects an MST
      of the witnessed terminal graph (simulated, O(D + t) rounds);
    + token floods mark the witnessing paths, and the F.3 pruning routine
      extracts the minimal subtree (simulated).

    Mehlhorn's analysis gives factor 2 against the optimal Steiner tree,
    same as the metric-closure KMB but without all-pairs work. *)

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
}

val run : Dsf_graph.Graph.t -> terminals:int list -> result
(** Requires a connected graph and at least one terminal.  Every simulated
    run (the F.3 pruning included) carries the result's ledger in its
    {!Dsf_congest.Sim.env}, so the engine counts its rounds. *)
