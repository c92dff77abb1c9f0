(** The moat bookkeeping shared by all four moat-growing algorithms: the
    centralized Algorithms 1 and 2 ({!Moat}, {!Moat_rounded}) and their
    distributed emulations ({!Det_dsf}, {!Det_sublinear}).

    {!t} is the replicated moat/label state — terminal indexing, moat and
    label union-find, per-moat activity — together with the rule that a
    moat is inactive iff it is the only moat carrying its label.  It needs
    no distances, so the distributed algorithms build it with {!create}
    from what the setup broadcast made global.  The centralized algorithms
    wrap it in a {!state} that adds exact radii and terminal-terminal
    distances ({!setup}), event computation and path selection.  Internal
    to [dsf_core]. *)

type t = {
  terms : int array;  (** terminal index -> node id *)
  tindex : int array;  (** node id -> terminal index; [-1] elsewhere *)
  init_label : int array;  (** per terminal index *)
  label_id : int array;
      (** per terminal index: the dense id of its initial label, in label
          order *)
  label_value : int array;  (** dense label id -> label *)
  moats : Dsf_util.Union_find.t;  (** over terminal indices *)
  label_uf : Dsf_util.Union_find.t;
      (** label merging (Alg 1 l.24-27), over dense label ids *)
  act : bool array;  (** per moat, indexed by representative *)
}

val create : Dsf_graph.Instance.ic -> t
(** Every terminal of the (already minimalized) instance is its own
    active moat with its own label. *)

val copy : t -> t

val label : t -> int -> int
(** Current (merged) label of a terminal index. *)

val active : t -> int -> bool
(** Activity of the terminal's moat. *)

val is_lone_label : t -> int -> bool
(** The terminal's moat is the only one carrying its label. *)

val exists_active : t -> bool
val active_count : t -> int
(** Number of active moats. *)

val merge_alg1 : t -> int -> int -> bool
(** Algorithm 1 merge of two terminals' moats (lines 24-31): union the
    moats and their labels; the merged moat is active iff it is not alone
    with its label.  Returns whether some terminal's activity flipped. *)

val merge_alg2 : t -> int -> int -> unit
(** Algorithm 2 merge (line 33): as {!merge_alg1}, but the merged moat is
    always active. *)

val recompute_activity : t -> unit
(** Algorithm 2 threshold checkpoint (lines 20-25): every moat is active
    iff it is not alone with its label. *)

type state = {
  graph : Dsf_graph.Graph.t;
  ms : t;
  scale : int;  (** the factor every distance below is multiplied by *)
  ndist : int array array;
      (** terminal index -> node -> weighted distance; [max_int] if
          unreachable *)
  tdist : int array array;  (** terminal-terminal weighted distances *)
  owner : int array;
      (** node -> terminal index of the moat that covered it first; [-1]
          while uncovered *)
  rad : Frac.t array;  (** per-terminal radius, exact *)
}

val setup : Dsf_graph.Instance.ic -> scale:int -> state option
(** Centralized state, after one Dijkstra per terminal.  [None] if the
    (minimalized) instance has no terminals.  Raises [Invalid_argument] if
    some component's terminals are disconnected.  [scale] multiplies all
    distances (used by Algorithm 2's integer thresholds). *)

val grow_active : state -> Frac.t -> unit
(** Grows every active moat by the given amount.  The nodes the growth
    covers join the active moat that reaches them first (least reduced
    distance, then least terminal index). *)

type event = { mu : Frac.t; vi : int; wi : int }
(** [vi], [wi] are terminal indices; [mu] the growth until their moats
    touch. *)

val next_event : state -> event option
(** Minimal next touching event over moat pairs in distinct moats with at
    least one active side; ties broken by the terminal-index pair.  Two
    active moats whose every touching point is a node inside a third,
    inactive moat do not touch there: growth does not pass through an
    inactive moat, so each of them reaches that moat at the same growth
    instead, as in the distributed emulations' frozen regions.  [None]
    when no such pair exists. *)

val add_path :
  state -> forest:bool array -> uf_nodes:Dsf_util.Union_find.t -> event -> unit
(** Adds a least-weight path between the event's terminals to [forest]
    (skipping cycle-closing edges).  Does NOT merge the moats: the caller
    applies {!merge_alg1} or {!merge_alg2}. *)
