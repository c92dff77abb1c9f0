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
  ?env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  sources:(int * Frac.t * int) list ->
  frozen:bool array ->
  node_result array * Dsf_congest.Sim.stats
(** [run g ~sources ~frozen] with [sources = [(node, offset, owner); ...]].
    Frozen nodes keep [owner = -1] in the result (callers retain their old
    assignment).  Runs under a ["region_bf"] span.

    The protocol is native to the flat engine: mutable in-place node
    state, CSR-resolved incoming weights, and one shared boxed [Relax]
    record per send-burst (dyadic distances exceed an immediate int, so
    messages stay boxed by design).  It runs through
    {!Dsf_congest.Fault.sim_run}, hardened with checkpointed recovery
    under a [Chaos] network. *)

(** {1 One merge phase of the distributed emulations}

    The region-growth steps shared by {!Det_dsf} and {!Det_sublinear}:
    per-node region state, one decomposition per merge phase, and the
    freeze at the phase's growth.  These steps open no span beyond
    {!run}'s. *)

type regions = {
  owners : int array;  (** owning terminal's node id; [-1] if uncovered *)
  offsets : Frac.t array;  (** reduced distance to the owner's boundary *)
  parents : int array;  (** frozen region-tree parent; [-1] at roots *)
  covered : bool array;  (** inside some moat *)
}

val regions : Moat_common.t -> regions
(** Each terminal covers only itself, at offset 0. *)

type phase = {
  frozen : bool array;  (** covered by a moat inactive at phase start *)
  growing : bool array;
      (** not frozen, and reached by a moat active at phase start *)
  reached : node_result array;  (** {!run}'s labels; stale where frozen *)
}

val decompose :
  env:Dsf_congest.Sim.env ->
  Dsf_graph.Graph.t ->
  regions ->
  Moat_common.t ->
  phase
(** Terminal decomposition at phase start: freezes the nodes covered by
    moats inactive in the moat state, and runs {!run} on the graph from
    the nodes covered by active ones, at their current offsets.  The
    moat state is only read; [growing] keeps its activity for
    {!freeze}, so merges may be applied before the freeze. *)

val owner_at : regions -> phase -> int -> int
(** Node's owner this phase: its frozen owner, else {!run}'s label. *)

val offset_at : regions -> phase -> int -> Frac.t

val freeze : regions -> phase -> Frac.t -> unit
(** [freeze reg ph mu]: the phase grew every moat active at its start by
    [mu].  Covered growing nodes shift their offset by [-mu]; uncovered
    ones within [mu] of their owner join its region, and its frozen tree
    through {!run}'s parent. *)
