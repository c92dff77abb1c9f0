(** Centralized shortest-path algorithms and the graph parameters the paper's
    bounds are stated in: unweighted diameter [D], weighted diameter [WD], and
    shortest-path diameter [s] (the maximum, over node pairs, of the minimum
    hop count among least-weight paths — Section 2).

    {b Kernels.}  Two single-source kernels compute lexicographic
    [(weight, hops)] shortest paths over the graph's CSR view
    ({!Graph.csr}), and one multi-source kernel computes unweighted
    eccentricities; a sweep allocates one workspace per task and reuses
    it for every source.

    - The {e heap kernel} serves {!dijkstra}, {!dijkstra_hops},
      {!shortest_path} and {!all_pairs}, and {!parameters} on graphs with
      a weight of 32 or more.  It is a monomorphic Dijkstra whose lazy
      binary min-heap holds [(d, h, v)] entries in parallel int arrays and
      applies {!Dsf_util.Heap}'s push, sift-up and sift-down rules under
      the strict [(d, h)] order, so entries pop in the same order as on
      that heap, ties included; a node's parent is written at each strict
      improvement of its key.  [dist], [hops] and [parent] are therefore
      fully determined by the graph and the source, including which of
      several equal-weight equal-hop paths is reported.  Its workspace is
      three [n]-arrays and three [2m + 1]-slot heap arrays.
    - The {e Dial kernel} serves {!parameters} when every weight is below
      32.  It is a bucket queue with one circular bucket per distance in
      flight (a power of two above the largest weight) and an occupancy
      mask in one int.  It computes no parents, so the order of ties does
      not matter: a node's hop count is final when its distance bucket is
      drained, because every predecessor on a least-weight path lies in a
      strictly lower bucket.  The mask jumps over empty buckets, so a
      source costs O(m), with no O(ecc) scan of a plain Dial queue, and
      allocates nothing.
    - The {e MS-BFS kernel} gives {!parameters} its [D].  It is the
      word-parallel multi-source BFS of Then et al. ("The More the
      Merrier", VLDB 2014): a block of 62 consecutive sources owns one bit
      each of an int word per node, and one pass over a frontier node's
      CSR row advances every source whose bit reached that node at the
      last level.  A level costs the frontier's degree sum, and a node
      enters the frontier once per distinct distance from the block's
      sources, which on a shallow graph is far fewer than 62 times.  The
      block's largest eccentricity is the index of the last level that
      reached a node.

    {b The sweep.}  {!parameters} cuts the sources into blocks of 62 and
    gives each block one MS-BFS for [D] and one heap or Dial kernel run
    per source for [WD] and [s].  With [~jobs] above 1, one task per
    domain, at most [min jobs Pool.hard_cap] and at most one per block,
    pulls blocks from a shared counter on {!Dsf_util.Pool}, each task
    with its own workspaces.  The triples are max-reduced, so the
    result is the same for every [jobs] and every schedule.

    On a deep graph such as a path a node enters the MS-BFS frontier at
    nearly every level, so a block costs about as much as 62 per-source
    BFS runs (measured within about 5% of them on a 256-node path); on a
    random graph it costs about a tenth of that.

    {b Cost.}  Every {!parameters} call, and every [diameter_*]
    projection, runs the whole sweep — O(n·m) on the Dial kernel and
    O(n·m log n) on the heap kernel — and nothing is stored on the
    graph.  The simulated algorithms never call it: they bound n, D, WD
    and s by their own simulated runs ({!Dsf_congest.Params.estimate}).
    The callers are the [params] command, [solve --record]'s log
    metadata, the experiment tables, the centralized baselines and the
    tests, and each sweeps a given graph at most once. *)

val dijkstra : Graph.t -> src:int -> int array * int array
(** [dijkstra g ~src] returns [(dist, parent)].  [dist.(v)] is the weighted
    distance from [src] ([max_int] if unreachable); [parent.(v)] is the
    predecessor on a least-weight, least-hop path ([-1] for [src] and
    unreachable nodes). *)

val dijkstra_hops : Graph.t -> src:int -> int array * int array * int array
(** Like {!dijkstra} but also returns the hop count of the least-hop
    least-weight path to each node. *)

val shortest_path : Graph.t -> src:int -> dst:int -> (int list * int) option
(** Node sequence (from [src] to [dst]) and weight of a least-weight
    least-hop path, or [None] if disconnected. *)

val path_edges : Graph.t -> int list -> int list
(** Edge ids along a node sequence.  Raises if consecutive nodes are not
    adjacent. *)

val bfs : Graph.t -> src:int -> int array * int array
(** Unweighted distances and BFS-tree parents. *)

val bfs_multi : Graph.t -> srcs:int list -> int array
(** Unweighted distance to the nearest source. *)

val all_pairs : Graph.t -> int array array
(** All-pairs weighted distances (one kernel run per source, one shared
    workspace). *)

val eccentricity_unweighted : Graph.t -> int -> int

val diameter_unweighted : Graph.t -> int
(** [D], the first component of {!parameters} (one sweep per call).
    Raises [Invalid_argument] if the graph is disconnected. *)

val diameter_weighted : Graph.t -> int
(** [WD], the second component of {!parameters} (one sweep per call). *)

val shortest_path_diameter : Graph.t -> int
(** [s]: max over pairs of the min hop count among least-weight paths — the
    third component of {!parameters} (one sweep per call). *)

val parameters : ?jobs:int -> Graph.t -> int * int * int
(** [(d, wd, s)] from one all-sources sweep (see {b The sweep}).  Raises
    [Invalid_argument "Paths: disconnected graph"] if the graph is
    disconnected, at every [jobs].

    [jobs] (default 1) is the number of domains the sweep may use; it
    changes the wall time only, never the triple.  The sweep is one
    {!Dsf_util.Pool} region, so a caller that is itself a Pool task must
    leave [jobs] at 1, or the sweep raises {!Dsf_util.Pool.Nested_use}. *)
