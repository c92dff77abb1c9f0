(** Distributed computation of the terminal decomposition for one merge
    phase (Lemma 4.8): a multi-source Bellman-Ford over *exact fractional*
    reduced distances.

    Sources are the nodes already covered by active moats, seeded with their
    (non-positive) offset [wd(v, u) - rad(v)] so that partially covered edges
    are charged exactly their reduced weight.  Nodes covered by inactive
    moats are frozen: they neither update nor relay (an active moat reaching
    an inactive one is a merge event that ends the phase, so growth never
    legitimately passes through an inactive region — see DESIGN.md).

    Labels are compared lexicographically by (distance, owner terminal id,
    hops), matching Definition 4.6's tie-breaking.  The number of simulated
    rounds is the quantity Lemma 4.8 bounds by O(s). *)

type node_result = {
  owner : int;  (** owning terminal's node id; [-1] if unreached *)
  offset : Frac.t;  (** wd(owner, u) - rad(owner), the reduced distance *)
  parent : int;  (** predecessor towards the owner; [-1] at sources *)
}

val run :
  ?observer:Dsf_congest.Sim.observer ->
  ?faults:Dsf_congest.Sim.faults ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?jobs:int ->
  ?chaos:Dsf_congest.Fault.chaos ->
  Dsf_graph.Graph.t ->
  sources:(int * Frac.t * int) list ->
  frozen:bool array ->
  node_result array * Dsf_congest.Sim.stats
(** [run g ~sources ~frozen] with [sources = [(node, offset, owner); ...]].
    Frozen nodes keep [owner = -1] in the result (callers retain their old
    assignment).  [observer] taps the run's messages (per-run, domain-safe).

    Runs a native flat-engine port on {!Dsf_congest.Sim.run_flat} with
    [?jobs] domains: mutable in-place node
    state, CSR-resolved incoming weights, and one shared boxed [Relax]
    record per send-burst (dyadic distances exceed an immediate int, so
    messages stay boxed by design).  Labels, rounds, messages, bits, and
    observer traces are bit-identical to the classic protocol (differential
    suite enforced); the classic protocol runs instead while
    {!Dsf_congest.Sim.use_reference_engine} is set.  [faults] injects a
    fault plan.  [chaos]
    instead runs the classic protocol hardened with checkpointed recovery
    under the given chaos plan (exclusive with [faults]; see
    {!Dsf_congest.Fault.sim_run}). *)
