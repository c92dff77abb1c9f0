(** Path-edge selection by token flood (Step 5 of the Appendix E.1
    algorithm, shared by the deterministic algorithms).

    Endpoints of the chosen inducing edges send a token up their frozen
    region-tree parent chain; each node forwards only its first token, and
    every traversed tree edge is selected.  The union over all tokens is
    exactly the union of the merge paths' tree segments.  {!merge_paths}
    is the whole final selection of {!Det_dsf} and {!Det_sublinear}: the
    F_min filter over their accepted merges, then the flood. *)

val token_flood :
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  parent:int array ->
  seeds:bool array ->
  int list * Dsf_congest.Sim.stats
(** Returns the selected edge ids and the simulation stats.  [parent.(v)]
    is the frozen region-tree parent (-1 at region roots); [seeds] marks
    the nodes that start with a token.  Runs under a ["token_flood"]
    span.

    When {!Dsf_congest.Sim.native_ports} holds, runs a native flat-engine
    port on {!Dsf_congest.Sim.run_flat}: node state is one
    immediate int (a {!Dsf_util.Pack} layout of pending, forwarded, and
    marked edge id + 1) and tokens are bare ints, with the sparse scheduler
    tracking the token wavefront instead of the classic full sweep.
    Selected edges, rounds, messages, bits, and observer traces are
    bit-identical to the classic protocol (differential suite enforced).
    Otherwise the classic protocol runs, hardened with checkpointed
    recovery under a [Chaos] network (see {!Dsf_congest.Fault.sim_run}). *)

val merge_paths :
  env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  labels:int array ->
  parent:int array ->
  ((int * int) * int) list ->
  bool array * Dsf_congest.Sim.stats
(** Final selection of the deterministic algorithms: keep the minimal
    merge subset F_min, then select the merge paths by {!token_flood}.
    [merges] are the accepted merges [((ti, tj), eid)] in acceptance
    order — terminal indices and the inducing edge; [labels] are the
    terminals' input labels, by terminal index.  F_min keeps each merge
    whose removal would disconnect two terminals of one label.  Returns the
    inducing edges of F_min plus the flooded region-tree edges, and the
    flood's stats. *)
