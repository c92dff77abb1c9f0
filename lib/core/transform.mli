(** Distributed instance transformations (Lemmas 2.3 and 2.4).

    [cr_to_ic] turns connection requests into equivalent input components in
    O(D + t) rounds: requests are convergecast with forest filtering (at
    most t - 1 survive), broadcast, and every node locally labels the
    connected components of the request graph.

    [minimalize] turns a DSF-IC instance into an equivalent minimal one
    (every surviving component has >= 2 terminals) in O(D + k) rounds: each
    label's first two witnesses are convergecast, the root broadcasts the
    set of non-singleton labels, and singleton terminals drop out. *)

type 'a outcome = {
  value : 'a;
  rounds : int;  (** simulated rounds *)
  messages : int;
}

val cr_to_ic :
  ?observer:Dsf_congest.Sim.observer ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?jobs:int ->
  ?chaos:Dsf_congest.Fault.chaos ->
  Dsf_graph.Instance.cr ->
  Dsf_graph.Instance.ic outcome
(** The resulting labels are the smallest terminal id in each request
    component, matching the construction in the proof of Lemma 2.3.
    [jobs] partitions every subroutine's run across pool domains (see
    {!Dsf_congest.Bfs.build}); results are jobs-invariant.
    [chaos] runs every subroutine hardened with checkpointed recovery
    under the given chaos plan (see {!Dsf_congest.Fault.sim_run}). *)

val minimalize :
  ?observer:Dsf_congest.Sim.observer ->
  ?telemetry:Dsf_congest.Telemetry.t ->
  ?jobs:int ->
  ?chaos:Dsf_congest.Fault.chaos ->
  Dsf_graph.Instance.ic ->
  Dsf_graph.Instance.ic outcome
