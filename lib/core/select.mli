(** Path-edge selection by token flood (Step 5 of the Appendix E.1
    algorithm, shared by the deterministic algorithms).

    Endpoints of the chosen inducing edges send a token up their frozen
    region-tree parent chain; each node forwards only its first token, and
    every traversed tree edge is selected.  The union over all tokens is
    exactly the union of the merge paths' tree segments. *)

val token_flood :
  ?observer:Dsf_congest.Sim.observer ->
  ?faults:Dsf_congest.Sim.faults ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?jobs:int ->
  ?chaos:Dsf_congest.Fault.chaos ->
  Dsf_graph.Graph.t ->
  parent:int array ->
  seeds:bool array ->
  int list * Dsf_congest.Sim.stats
(** Returns the selected edge ids and the simulation stats.  [parent.(v)]
    is the frozen region-tree parent (-1 at region roots); [seeds] marks
    the nodes that start with a token.  [observer] taps the run's messages
    (per-run, domain-safe).

    Runs a native flat-engine port on {!Dsf_congest.Sim.run_flat} with
    [?jobs] domains: node state is one
    immediate int (a {!Dsf_util.Pack} layout of pending, forwarded, and
    marked edge id + 1) and tokens are bare ints, with the sparse scheduler
    tracking the token wavefront instead of the classic full sweep.
    Selected edges, rounds, messages, bits, and observer traces are
    bit-identical to the classic protocol (differential suite enforced).
    The classic protocol runs instead while
    {!Dsf_congest.Sim.use_reference_engine} is set.  [faults] injects a
    fault plan.  [chaos] instead runs the
    classic protocol hardened with checkpointed recovery under the given
    chaos plan (exclusive with [faults]; see
    {!Dsf_congest.Fault.sim_run}). *)
