(** The Lemma F.6 mark/unmark selection protocol, genuinely simulated.

    Given rooted trees (cluster subtrees, [parent.(v) = -1] at roots) and a
    set of label classes per node, select the union over classes of the
    minimal subtree spanning each class's holders:

    + mark phase: every holder floods each of its classes toward the root,
      one message per round, deduplicated per node; each traversed edge is
      tentatively marked with that class;
    + unmark phase: from the root downwards, any chain that carries a class
      with only a single witness below is peeled off (the root-to-junction
      prefix of the marked paths), again pipelined one message per round.

    Each node sends at most two messages per class (Lemma F.6), so both
    phases finish in O(depth + #classes) simulated rounds. *)

val run :
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  parent:int array ->
  labels:(int -> int list) ->
  bool array
(** Returns the kept-edge bit set (indexed by edge id; only tree edges can
    be set).  Every [(v, parent.(v))] pair must be an edge of the graph.
    Both phases run under [env] (see {!Dsf_congest.Sim}), which counts
    their cost. *)
