(** Distributed minimum spanning tree by pipelined Kruskal filtering over a
    BFS tree — the classical O(D + n) pipelined-convergecast MST, used as
    the reference point for the E9 "MST special case" experiment (the
    paper notes that its deterministic algorithm specialized to k = 1,
    t = n computes an exact MST). *)

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
}

val run : Dsf_graph.Graph.t -> result
(** Requires a connected graph; returns the (unique under edge-id
    tie-breaking) minimum spanning tree.  Both simulated runs (the BFS
    tree and the filtered upcast) go under one {!Dsf_congest.Sim.env}
    carrying the result's ledger, so the engine counts their rounds. *)
