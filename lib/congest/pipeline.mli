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
  'k item list * Sim.stats
(** Returns the root's accepted items in ascending order.  [pre] lists
    virtual-endpoint pairs already connected (the components of F'_c in
    Lemma 4.14); items closing cycles with [pre] are filtered everywhere.
    [cmp] must be a total order; ties are broken by endpoints.

    [stop_at_root] receives the root's accepted prefix (ascending) after
    each acceptance; when it returns [true] the collection is aborted — the
    Corollary 4.16 early stop, where the root detects that a merge changes
    some terminal's activity status.  The caller should charge an extra
    O(D) stop-broadcast to its ledger.  Runs under a ["filtered_upcast"]
    span.

    When {!Sim.native_ports} holds, runs a native flat-engine port on
    {!Sim.run_flat}: mutable per-node state, array child queues, O(1)
    stalled/drained tests, and mail-driven wake (the classic protocol
    sweeps every unfinished node each round).  Items stay boxed — the
    payload is a generic ['k] key plus two endpoints, beyond one immediate
    int — so the port's win is scheduling and bookkeeping, not message
    packing.  Accepted list, rounds, messages, bits, and observer traces
    are bit-identical to the classic protocol (differential suite
    enforced).  Otherwise the classic protocol runs. *)

val select_forest :
  vn:int -> pre:(int * int) list -> cmp:('k -> 'k -> int) ->
  'k item list -> 'k item list
(** Centralized reference of the same filter (ascending scan + union-find),
    used by tests to validate the distributed version. *)
