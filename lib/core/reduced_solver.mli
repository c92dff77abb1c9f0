(** Construction and solution of the F-reduced instance (Definition 5.1) —
    the second stage of the randomized algorithm when s > sqrt(n).

    Terminals cluster into super-terminals T_v around their closest
    S-node in the already-selected subgraph (V, F); contracted, they form
    the reduced graph G^ whose labels are the connected components of the
    label helper graph (Lambda, E_Lambda).  The paper solves the reduced
    instance with the spanner machinery of [17], used purely as a black box
    with contract "O(log n)-approximate in O~(sqrt n + D) rounds".  We honor
    the same contract with the deterministic moat-growing 2-approximation
    run centrally on G^ (a *stronger* approximation), and charge the
    contracted round bound to the caller's ledger — the substitution is
    documented in DESIGN.md.

    The T_v assignment (hop-limited Bellman-Ford on the F-subgraph) and
    the Lemma G.12 helper-graph construction (per-T_v min-label gossip,
    pipelined forest upcast, broadcast) are genuinely simulated under
    [env], whose ledger counts their rounds. *)

type outcome = {
  extra_edges : bool array;
      (** F': selected original-graph edges realizing the reduced solution *)
  reduced_terminal_count : int;  (** t^ <= |S| *)
  reduced_label_count : int;
  charged_rounds : int;
      (** the remaining [17]-internals charge (central spanner solve):
          sqrt n + 2 height, the tree's bound on D *)
  unassigned_terminals : int;
      (** terminals in no T_v (rely on F already connecting them, w.h.p.) *)
}

val solve :
  ?env:Dsf_congest.Sim.env ->
  ?spanner_stretch:int option ->
  Dsf_graph.Instance.ic ->
  tree:Dsf_congest.Bfs.tree ->
  f:bool array ->
  s_set:int list ->
  outcome
(** [tree] is the caller's BFS tree (twice its height stands for D in the
    charge); [f] the first-stage edge set; [s_set] the sqrt(n)
    highest-ranked nodes.

    [spanner_stretch] (default [Some 3]) follows the [17] recipe: a greedy
    spanner of the super-terminal metric is built ({!Dsf_graph.Spanner}),
    the reduced instance is solved on it, and its edges are realized as
    shortest paths.  [None] solves directly on the full reduced graph
    (slightly better quality, but not how the paper's black box works). *)
