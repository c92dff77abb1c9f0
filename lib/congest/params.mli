(** Distributed estimation of the global graph parameters the algorithms
    branch on — the machinery of the paper's footnote 2: "compute n by
    convergecast, then run Bellman-Ford until stabilization or sqrt(n)
    iterations have elapsed, whichever happens first".

    All routines genuinely simulate; the engine counts their rounds into
    [env]'s ledger (see {!Sim.env}).  No routine reads a centralized
    parameter: what they return is what the simulated runs computed. *)

val count_nodes : ?env:Sim.env -> Dsf_graph.Graph.t -> int
(** [n] by BFS-tree convergecast. *)

val diameter_upper_bound : ?env:Sim.env -> Dsf_graph.Graph.t -> int
(** 2-approximation of D: twice the BFS eccentricity of the max-id
    root. *)

type estimate = {
  n : int;  (** the node count, by convergecast over [tree] *)
  tree : Bfs.tree;
      (** the BFS tree from the max-id root that the count ran on; twice
          its height bounds D *)
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

val estimate : ?env:Sim.env -> ?cap:int -> Dsf_graph.Graph.t -> estimate
(** Builds the BFS tree from the max-id root, counts [n] over it, then
    runs single-source Bellman-Ford from the root for at most [cap] + 1
    rounds ([cap] defaults to floor(sqrt n) of the counted [n]).  The WD
    bound goes to the root by one aggregate over the tree and back to
    every node by one broadcast.  An exceeded run counts its [cap + 1]
    rounds. *)

val regime : ?env:Sim.env -> Dsf_graph.Graph.t -> estimate
(** The Section 5 regime test: {!estimate} at the default cap, under a
    [regime_test] span.  The small-s regime is [s <> None]. *)
