(** In-component gossip over a masked edge set.

    The sublinear algorithm repeatedly needs "each moat/cluster computes
    the minimum of a value over its members, communicating only along the
    already-selected forest edges" (Steps 3bi/3biv of Section 4.2, Lemma
    F.4).  These helpers simulate exactly that: nodes flood improving
    values over the edges enabled by [mask]; a component of diameter d
    stabilizes in ~d rounds, all components in parallel. *)

val gossip_extremum :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  mask:bool array ->
  values:(int -> 'a option) ->
  better:('a -> 'a -> bool) ->
  bits:('a -> int) ->
  'a option array
(** [gossip_extremum g ~mask ~values ~better ~bits] returns, for every
    node, the extremum (w.r.t. [better x y] = "x beats y") of [values]
    over its mask-component ([None] if no member has a value). *)

val leaders :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  mask:bool array ->
  int array
(** Per-node maximum node id in its mask-component — the moat/cluster
    leader convention of the paper's appendix. *)

val component_min_item :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  mask:bool array ->
  values:(int -> 'a option) ->
  cmp:('a -> 'a -> int) ->
  bits:('a -> int) ->
  'a option array
(** Convenience wrapper of {!gossip_extremum} for a total order. *)
