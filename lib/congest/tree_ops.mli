(** Pipelined communication over a (BFS) tree: convergecast, broadcast, and
    aggregate reduction.  These are the workhorses behind every "collect X at
    the root / make X globally known in O(D + |X|) rounds" step in the paper
    (Lemmas 2.3, 2.4, 4.14, Corollary 4.16, the transforms, and the
    randomized algorithm's per-phase bookkeeping).

    All functions genuinely simulate message passing round by round; one item
    crosses one edge per round, so the round counts exhibit the pipelining
    the paper's analysis relies on.

    Every operation takes the run environment [?env] (see {!Sim}) and
    runs under a span named after the primitive ([upcast], [broadcast],
    [aggregate], ...) nested in the caller's current span.

    Every operation is a {!Sim.flat_protocol} run through
    {!Fault.sim_run}.  Under a [Chaos] network each runs hardened,
    supplying its own {!Fault.recoverable} snapshot, so crash-restart
    plans are masked.  {!aggregate}'s child-count handshake is
    duplicate-tolerant (a child's report is identified by its sender id
    — each child reports exactly once), so duplication plans cannot
    corrupt or livelock the count even {e without} hardening. *)

val upcast :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  tree:Bfs.tree ->
  items:(int -> 'a list) ->
  bits:('a -> int) ->
  'a list
(** Collect all items at the root (no filtering, duplicates preserved).
    Returns the root's received list (own items first, then arrival order).
    Rounds ~ height + max path congestion.  [bits] is called once per
    item, at the node that holds it; the size travels with the item, so
    [bits] must be a function of the item alone. *)

val upcast_dedup :
  ?env:Sim.env ->
  ?per_key:int ->
  Dsf_graph.Graph.t ->
  tree:Bfs.tree ->
  items:(int -> 'a list) ->
  key:('a -> 'b) ->
  bits:('a -> int) ->
  'a list
(** Like {!upcast}, but each node forwards at most [per_key] distinct items
    per key (default 1) — the "ignore further messages with this label"
    filtering of Lemmas 2.3/2.4 (which needs [per_key = 2]: a label is
    non-singleton as soon as two witnesses exist).  Duplicate items (equal
    as values) are never forwarded twice.  [bits] is called once per item,
    at its holder, as in {!upcast}. *)

val upcast_sequential :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  tree:Bfs.tree ->
  items:(int -> 'a list) ->
  bits:('a -> int) ->
  'a list
(** The NON-pipelined strawman used by the A1 ablation: items travel to
    the root one at a time under a best-case centralized schedule — each
    item is fully delivered before the next departs, so rounds ~ sum of
    item depths instead of height + count.  This is the congestion
    behaviour the paper's pipelining (Lemma 4.14, Section 5) eliminates. *)

val broadcast :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  tree:Bfs.tree ->
  items:'a list ->
  bits:('a -> int) ->
  unit
(** Pipeline the root's item list down the tree: on a lossless network
    every non-root node receives the whole list, in order, from its tree
    parent.  Callers keep the replicated list centrally, so nothing is
    returned; the run's cost lands in [env].  Rounds ~ height + |items|.
    [bits] is called once per item, at the root; the size travels with
    the item, so [bits] must be a function of the item alone. *)

val aggregate :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  tree:Bfs.tree ->
  value:(int -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  bits:('a -> int) ->
  'a
(** Bottom-up reduction with an associative, commutative [combine]; the
    result over all nodes lands at the root.  Rounds ~ height. *)

val count_nodes :
  ?env:Sim.env ->
  Dsf_graph.Graph.t ->
  tree:Bfs.tree ->
  int
(** Convergecast count of all nodes ([n] as computed in the paper's
    footnote 2). *)
