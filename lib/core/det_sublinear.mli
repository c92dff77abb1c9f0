(** The sublinear-in-t deterministic algorithm (Section 4.2,
    Theorem F.11 / Corollary 4.21): a distributed emulation of the rounded
    Algorithm 2 achieving factor (2 + ε) in O~(sk + σ) rounds, where
    σ = sqrt(min(st, n)).

    The setup learns the parameters by footnote 2's technique, simulated
    ({!Dsf_congest.Params.estimate}): n by convergecast over the BFS tree
    from the max-id root, then Bellman-Ford from that root to
    stabilization.  σ is isqrt(min(s' t, n)) for the run's stabilization
    round s' (a lower bound on s, and in practice close to it).  The
    growth-phase cap uses the WD bound read off the same run (twice the
    root's weighted eccentricity, spread by one aggregate and one
    broadcast over the tree).  That BFS tree also carries every later
    convergecast and broadcast.

    Per growth phase (threshold µ̂, (1+ε/2)µ̂, ...):

    + Step 3a — merge phases: each runs a terminal-decomposition
      Bellman-Ford (simulated) and a global min-convergecast (simulated) to
      find the next active-INACTIVE merge; active-active merges do not stop
      growth and are deferred.
    + Steps 3b-3f — deferred active-active merges: small moats (component
      < σ nodes, Definition 4.18) repeatedly propose their minimal
      candidate and merge along a maximal matching (charged O~(σ + s) per
      iteration, Lemma F.4); the at most σ candidates left are selected by
      the pipelined Kruskal filter (simulated, Lemma 4.14).
    + Steps 3g-3i — moat bookkeeping and activity recomputation (charged
      O(D + k + σ), Lemma F.5).

    The final pruning (Appendix F.3) is an edge-level prune charged
    O~(σ + k + D) per Corollary F.10.

    The matching-then-filter selection provably equals plain Kruskal on the
    candidate multigraph (minimal incident edges are in the unique minimum
    forest), so the merge schedule coincides with {!Moat_rounded}'s — which
    the tests check pair by pair. *)

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
  sigma : int;  (** isqrt(min(s' t, n)), s' the simulated estimate of s *)
  growth_phases : int;
  merge_phase_count : int;  (** sum of k_g: decompositions computed *)
  merge_count : int;
  merge_pairs : (int * int) list;  (** owner-terminal pairs, in order *)
  small_moat_iterations : int;
}

val max_eps_den : int
(** 63: the largest [eps_den] {!run} accepts.  The weight scale
    [ceil(8 eps_den / eps_num)] multiplies every edge weight, so on an
    instance within {!Dsf_graph.Graph.max_total_weight} this keeps the
    scaled arithmetic inside the int range (derived from that bound). *)

val run :
  ?telemetry:Dsf_congest.Telemetry.t ->
  eps_num:int ->
  eps_den:int ->
  Dsf_graph.Instance.ic ->
  result
(** The labelled arguments build one {!Dsf_congest.Sim.env} (one domain)
    at entry, carrying the result's ledger, so the engine counts every
    simulated run and [telemetry] (and a flight recorder riding on it)
    sees every one, the Appendix F.3 pruning included.
    [telemetry] profiles the run as a span tree ([minimalize] / [setup] /
    [growth] with [merge_phase], [small_moats] and [activity] nested per
    growth phase / [final]), and every charge lands in its enclosing
    span.  Raises [Invalid_argument] unless
    0 < eps_num / eps_den <= 1 and [eps_den <= max_eps_den]. *)
