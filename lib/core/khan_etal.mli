(** The prior-art baseline of Khan, Kuhn, Malkhi, Pandurangan & Talwar
    (reference [14] of the paper): tree embedding + per-component edge
    selection, O(log n)-approximate in O~(s k) rounds.

    The embedding is the same virtual tree as the paper's randomized
    algorithm; the difference is the selection stage.  Where Section 5
    time-multiplexes all components through the per-(label, target) filter
    (O~(s + k) total), the baseline handles components one at a time, so
    each of the k components pays its own O~(s) — the congestion behaviour
    the paper's introduction attributes to [14].  The E8 experiment
    contrasts the two round counts on the same instances. *)

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
  components_routed : int;
}

val run :
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?repetitions:int ->
  rng:Dsf_util.Rng.t ->
  Dsf_graph.Instance.ic ->
  result
(** Every simulated run (the minimalization, each repetition's virtual
    tree, and each component's per-level routing) runs under one
    {!Dsf_congest.Sim.env} built from [telemetry] and carrying the
    result's ledger, so the engine counts all of them, and telemetry and
    an attached flight recorder see every message.  [telemetry] profiles
    the run as one [khan_baseline] span, with the simulated primitives
    nested beneath.

    The virtual trees are sized by the input's weight bound
    ({!Dsf_graph.Graph.max_total_weight}), which bounds WD and which every
    node knows, so the baseline learns no parameter: a component's routing
    stops once its labels meet at one holder, and the levels above the
    one whose balls cover the graph cost no rounds. *)
