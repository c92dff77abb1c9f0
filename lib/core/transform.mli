(** Distributed instance transformations (Lemmas 2.3 and 2.4).

    [cr_to_ic] turns connection requests into equivalent input components in
    O(D + t) rounds: requests are convergecast with forest filtering (at
    most t - 1 survive), broadcast, and every node locally labels the
    connected components of the request graph.

    [minimalize] turns a DSF-IC instance into an equivalent minimal one
    (every surviving component has >= 2 terminals) in O(D + k) rounds: each
    label's first two witnesses are convergecast over [tree] (the BFS tree
    the calling algorithm built first), the root broadcasts the set of
    non-singleton labels, and singleton terminals drop out.

    Both simulate every step under [env] (see {!Dsf_congest.Sim}); the
    engine counts their rounds into [env]'s ledger. *)

val cr_to_ic :
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Instance.cr ->
  Dsf_graph.Instance.ic
(** The resulting labels are the smallest terminal id in each request
    component, matching the construction in the proof of Lemma 2.3.
    Every subroutine runs under [env] (see {!Dsf_congest.Sim}) inside a
    ["cr_to_ic"] span; a [Chaos] network
    runs them hardened with checkpointed recovery (see
    {!Dsf_congest.Fault.sim_run}). *)

val minimalize :
  ?env:Dsf_congest.Sim.env ->
  tree:Dsf_congest.Bfs.tree ->
  Dsf_graph.Instance.ic ->
  Dsf_graph.Instance.ic
