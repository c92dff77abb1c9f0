(** Distributed deterministic Steiner Forest (Section 4.1, Theorem 4.17):
    a CONGEST emulation of the moat-growing Algorithm 1 with approximation
    factor 2 and round complexity O(ks + t).

    Structure (Appendix E.1), all phases genuinely simulated:

    + One BFS tree from the max-id root, built first: Lemma 2.4's
      minimalization and every convergecast and broadcast below run on
      it.  Collect and broadcast all (terminal, label) pairs over it —
      O(D + t) rounds, pipelined.
    + Per merge phase j: compute the terminal decomposition with a
      reduced-weight multi-source Bellman-Ford (Lemma 4.8, O(s) rounds);
      boundary nodes propose candidate merges; a pipelined Kruskal-filtered
      convergecast (Corollary 4.16) delivers them in ascending order to the
      root, which stops at the first merge that changes some terminal's
      activity status; the phase's merges are broadcast, and every node
      locally updates moats, labels, activity, and its region freeze.
    + Finally each node locally computes the minimal candidate subforest
      F_min and path edges are marked by tokens climbing the frozen
      region trees (O(s) rounds).

    The per-merge growth values are exposed so tests can check that the
    emulation follows exactly the merge schedule of the centralized
    {!Moat}. *)

type merge_info = {
  mu_total : Frac.t;  (** growth from phase start until this merge *)
  mu_increment : Frac.t;  (** growth since the previous merge *)
  terminals : int * int;  (** terminal node ids whose moats merged *)
  phase : int;
}

type result = {
  solution : bool array;  (** the returned minimal feasible forest *)
  weight : int;
  dual : Frac.t;  (** same certified lower bound as {!Moat} *)
  merges : merge_info list;
  phase_count : int;
  ledger : Dsf_congest.Ledger.t;  (** full round accounting *)
}

val run :
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?flat:bool ->
  ?jobs:int ->
  ?chaos:Dsf_congest.Fault.plan ->
  Dsf_graph.Instance.ic ->
  result
(** Requires a connected graph.  Singleton components are dropped
    (Lemma 2.4, by the simulated O(D + k) transform).
    The labelled arguments build one {!Dsf_congest.Sim.env} at entry,
    carrying the result's ledger, and every simulated subroutine runs
    under it, so the engine counts every simulated round.  [telemetry]
    profiles the run as a span tree ([bfs] / [minimalize] / [setup] /
    [phase] / [final], with the simulated primitives nested beneath), and
    every charge lands in its enclosing span; a flight recorder riding on it
    logs every message of every simulated subroutine.

    Every simulated subroutine runs its flat protocol on the flat-core
    engine, on the calling domain; the result, ledger, telemetry
    costs and flight logs are bit-identical to
    {!Dsf_congest.Sim.run_reference} (differential suite enforced).

    [flat] and [jobs] are deprecated no-ops, accepted and ignored so
    existing callers keep compiling: the flat engine is the only
    production engine, and it steps every run on one domain.

    [chaos] runs every simulated subroutine hardened with checkpointed
    crash recovery under the given chaos plan (see
    {!Dsf_congest.Fault.sim_run}): the solution, weight, dual, merge
    schedule, and phase count are bit-identical to the fault-free run on
    any engine — only the ledger's round counts (and the recovery
    telemetry) reflect the injected faults.  Each primitive hardens the
    same native port it runs on a lossless network. *)
