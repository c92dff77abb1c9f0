(** Pipelined, filtered convergecast of matroid elements — the
    Garay-Kutten-Peleg / Kutten-Peleg technique the paper invokes in
    Lemma 4.14 and Corollary 4.16 to select candidate merges, and the
    classical way to finish a distributed MST.

    Every node holds a set of items; each item is an edge between two
    *virtual* endpoints (terminals, moats, clusters ...) with a totally
    ordered key.  In every round a node scans its buffer in ascending key
    order, locally deletes items that close a cycle with what it has already
    forwarded (plus a pre-connected relation), and forwards the least
    surviving item to its tree parent.  The root applies the same filter;
    the items it accepts are exactly the ascending-order cycle-free subset
    of all items — global Kruskal — and perfect pipelining makes the round
    count ~ tree height + number of accepted items (Lemma 4.14's
    O(D + |F|)). *)

type 'k item = { key : 'k; a : int; b : int }
(** Virtual endpoints [a], [b] in [0, vn). *)

val filtered_upcast :
  ?env:Sim.env ->
  ?stop_at_root:('k item list -> bool) ->
  Dsf_graph.Graph.t ->
  tree:Bfs.tree ->
  vn:int ->
  pre:(int * int) list ->
  items:(int -> 'k item list) ->
  cmp:('k -> 'k -> int) ->
  bits:('k item -> int) ->
  'k item list
(** Returns the root's accepted items in ascending order.  [pre] lists
    virtual-endpoint pairs already connected (the components of F'_c in
    Lemma 4.14); items closing cycles with [pre] are filtered everywhere.
    [cmp] must be a total order; ties are broken by endpoints.

    [stop_at_root] receives the root's accepted prefix (ascending) once
    after each acceptance; when it returns [true] the collection is
    aborted — the
    Corollary 4.16 early stop, where the root detects that a merge changes
    some terminal's activity status.  The caller should charge an extra
    O(D) stop-broadcast to its ledger.  Runs under a ["filtered_upcast"]
    span.

    Runs a native flat-engine protocol through {!Fault.sim_run}: mutable
    per-node state (checkpointed by deep copy under a [Chaos] network),
    array child queues, O(1) stalled/drained tests, and a done test
    that leaves only the item/Done wavefront stepping.  [bits] is called once per item, at its holder; the size
    travels with the item, so [bits] must be a function of the item
    alone.  [pre] is unioned once into a template and compressed to a
    root array, which a node copies (one [int array]) when it handles
    its first item. *)

val select_forest :
  vn:int -> pre:(int * int) list -> cmp:('k -> 'k -> int) ->
  'k item list -> 'k item list
(** Centralized reference of the same filter (ascending scan + union-find),
    used by tests to validate the distributed version. *)
