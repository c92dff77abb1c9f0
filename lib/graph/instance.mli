(** Steiner Forest problem instances (Definitions 2.1 and 2.2).

    An instance of DSF-IC is a graph plus a label per node: [labels.(v)] is
    the input-component id of terminal [v], or [-1] when [v] is not a
    terminal.  An instance of DSF-CR is a graph plus per-node connection
    request sets.  Output edge sets are represented as bit arrays indexed by
    edge id. *)

type ic = { graph : Graph.t; labels : int array }

type cr = { cr_graph : Graph.t; requests : int list array }
(** [requests.(v)] is the set R_v of nodes v must be connected to. *)

val make_ic : Graph.t -> int array -> ic
(** Validates: labels length = n, label values >= -1, every used label has at
    least one terminal.  (Singleton components are allowed; see
    {!minimalize}.) *)

val make_cr : Graph.t -> int list array -> cr

val terminals : ic -> int list
val terminal_count : ic -> int
(** [t] of the paper. *)

val component_count : ic -> int
(** [k]: number of distinct labels in use. *)

val label_ids : ic -> int array * (int -> int)
(** The labels in use, ascending, and the map from a label in use to its
    position there: an order-preserving dense label id, so a per-label
    table is sized by [k], whatever the label values. *)

val components : ic -> (int * int list) list
(** [(label, members)] for each input component, labels ascending. *)

val nontrivial_component_count : ic -> int
(** [k0]: components with at least two terminals. *)

val minimalize : ic -> ic
(** Drop labels of singleton components (Lemma 2.4's semantic effect). *)

val ic_of_cr : cr -> ic
(** The equivalent DSF-IC instance (Lemma 2.3's semantic effect): input
    components are the connected components of the request graph on
    terminals. *)

val is_feasible : ic -> bool array -> bool
(** Does the edge set connect every input component? *)

val cr_is_feasible : cr -> bool array -> bool

val solution_weight : ic -> bool array -> int

val is_forest : Graph.t -> bool array -> bool

val prune : ic -> bool array -> bool array
(** [prune inst f] returns the minimal subset of the forest [f] that still
    solves the instance (the "minimal feasible subset" of Algorithms 1/2 and
    the goal of the fast pruning routine, Appendix F.3).  Requires [f] to be
    a feasible forest. *)

