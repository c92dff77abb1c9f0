(** Distributed estimation of the global graph parameters the algorithms
    branch on — the machinery of the paper's footnote 2: "compute n by
    convergecast, then run Bellman-Ford until stabilization or sqrt(n)
    iterations have elapsed, whichever happens first".

    Both routines genuinely simulate; the engine counts their rounds into
    [env]'s ledger (see {!Sim.env}).  No routine reads a centralized
    parameter: what they return is what the simulated runs computed.
    They run on the caller's BFS tree: each algorithm builds one, from
    the max-id root, as its first simulated step, and twice its height
    bounds D. *)

type estimate = {
  n : int;  (** the node count, by convergecast over the tree *)
  s : int option;
      (** [Some r]: the Bellman-Ford run from the root stabilized, and [r]
          is its round count — a lower bound on (and in practice close
          to) the shortest-path diameter s.  [None]: it did not stabilize
          within the cap, so s > cap. *)
  wd_bound : int;
      (** an upper bound on the weighted diameter WD, known to every node:
          twice the root's weighted eccentricity when the run stabilized
          (so at most 2 WD), else min(n - 1, 2 height) times the largest
          edge weight *)
}

val estimate :
  ?env:Sim.env -> ?cap:int -> Dsf_graph.Graph.t -> tree:Bfs.tree -> estimate
(** Counts [n] over [tree], then runs single-source Bellman-Ford from
    its root for at most [cap] + 1 rounds ([cap] defaults to floor(sqrt
    n) of the counted [n]).  The WD bound goes to the root by one
    aggregate over the tree and back to every node by one broadcast.  An
    exceeded run counts its [cap + 1] rounds. *)

val regime : ?env:Sim.env -> Dsf_graph.Graph.t -> tree:Bfs.tree -> estimate
(** The Section 5 regime test: {!estimate} at the default cap, under a
    [regime_test] span.  The small-s regime is [s <> None]. *)
