(** The randomized distributed Steiner Forest algorithm (Section 5,
    Theorem 5.2): an O(log n)-approximation in O~(k + min(s, sqrt n) + D)
    rounds w.h.p.

    First stage: embed the graph into a random virtual tree (Khan et al.,
    via {!Dsf_embed}); then, in L + 1 level phases, component labels climb
    the tree — every holder of a live label sends (label, ancestor_i) up its
    recorded shortest path, messages are filtered so only the first one per
    (label, target) survives, traversed edges enter F, and each target
    concentrates its labels at a single representative found by backtracing
    (steps 3a-3d).  When s > sqrt n the ancestor chains are truncated at
    S = the sqrt n highest-ranked nodes, and each leaf connects to its
    closest S node instead.

    Second stage (only when truncating): the connected components of (V, F)
    around S become super-terminals of the F-reduced instance
    (Definition 5.1), which is solved by {!Reduced_solver} — our stand-in
    for the paper's [17] black box (see DESIGN.md) — and the returned edges
    join F.

    The first stage runs [repetitions] times and the lightest F wins (the
    paper's expectation-to-w.h.p. amplification); each repetition's weight
    is compared by a simulated convergecast over the BFS tree.

    Every parameter comes from the regime test
    ({!Dsf_congest.Params.regime}), run once before the repetitions: its
    BFS tree from the max-id root serves every repetition; twice its height
    bounds D (the second stage's charge); and its WD bound sizes the
    virtual tree, at most ceil(log2 WD) + 1 levels when Bellman-Ford
    stabilized (twice the root's weighted eccentricity), else
    ceil(log2 (min(n - 1, 2 height) max_w)). *)

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
  truncated : bool;  (** did the s > sqrt(n) regime apply? *)
  repetitions : int;
  s_param : int;
      (** the regime test's estimate of s: the round at which Bellman-Ford
          from the max-id root stabilized, or floor(sqrt n) + 1 when it did
          not within floor(sqrt n) rounds (s is then above sqrt n) *)
  phases : int;  (** virtual-tree levels walked per repetition *)
}

val run :
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?repetitions:int ->
  ?force_truncate:bool ->
  ?jobs:int ->
  rng:Dsf_util.Rng.t ->
  Dsf_graph.Instance.ic ->
  result
(** [repetitions] defaults to 3.  [force_truncate] overrides the
    s-vs-sqrt(n) regime test (used by experiments to exercise both code
    paths on the same instance).

    [jobs] (default 1) runs the repetitions on the {!Dsf_util.Pool}
    domain pool.  Each repetition draws from an rng split off [rng] by
    its trial index, and its runs count their rounds into its own
    ledger, merged back in repetition order, so the result — solution,
    weight, and ledger — is bit-identical for every [jobs] value.  The
    regime test's tree and bound, and the graph's CSR view, are built on
    the calling domain before the fan-out, so trials only read them.

    The labelled arguments build one {!Dsf_congest.Sim.env} at entry;
    [jobs] drives only the trial fan-out.

    [telemetry] profiles every simulated run — LE lists, the virtual
    tree's Voronoi, label routing and backtracing included ([minimalize] /
    [regime_test] / [trial] / [stage2]); each repetition's runs use their
    own {!Dsf_congest.Telemetry.fork}
    (split sequentially before the fan-out, like the rng streams) and the
    forks merge back in repetition order, so the profile — wall clock
    aside — is also bit-identical for every [jobs] value.  A flight
    recorder riding on [telemetry] gets every trial's events the same
    way: each fork records into its own recorder, appended to the
    parent's in repetition order. *)
