(** Garay–Kutten–Peleg-style distributed MST in O~(D + √n) rounds — the
    algorithm behind the paper's repeated reference point that MST has
    complexity Θ~(D + √n) ([11, 16]), and the template its Section 4.2
    generalizes (small moats ↔ small fragments).

    Phase 1 (controlled Borůvka): fragments grow by merging along their
    minimum outgoing edges, with a maximal matching breaking merge chains,
    but stop participating once they reach √n nodes.  Intra-fragment
    convergecasts are charged O(√n + D) per iteration (Lemma F.4's
    counterpart); O(log n) iterations suffice.

    Phase 2: at most √n fragments remain, so at most √n inter-fragment MST
    edges do; they are selected by the pipelined Kruskal-filtered upcast of
    Lemma 4.14 (genuinely simulated, O(D + √n) rounds).

    The output is the exact MST (matching Kruskal under the same
    tie-breaking). *)

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
  boruvka_iterations : int;
  fragments_after_phase1 : int;
}

val run : Dsf_graph.Graph.t -> result
(** Requires a connected graph.  Every simulated run goes under one
    {!Dsf_congest.Sim.env} carrying the result's ledger, so the engine
    counts its rounds. *)
