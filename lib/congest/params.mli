(** Distributed estimation of the global graph parameters the algorithms
    branch on — the machinery of the paper's footnote 2: "compute n by
    convergecast, then run Bellman-Ford until stabilization or sqrt(n)
    iterations have elapsed, whichever happens first".

    All routines genuinely simulate; the engine counts their rounds into
    [env]'s ledger (see {!Sim.env}). *)

val count_nodes : ?env:Sim.env -> Dsf_graph.Graph.t -> int
(** [n] by BFS-tree convergecast. *)

val diameter_upper_bound : ?env:Sim.env -> Dsf_graph.Graph.t -> int
(** 2-approximation of D: twice the BFS eccentricity of the max-id
    root. *)

val estimate_s :
  ?env:Sim.env ->
  cap:int ->
  Dsf_graph.Graph.t ->
  [ `Stabilized of int | `Exceeded ]
(** Run single-source Bellman-Ford from the max-id root until it
    stabilizes or [cap] rounds elapse.  [`Stabilized r] reports the
    stabilization round — a lower bound on (and in practice close to) the
    shortest-path diameter [s]; [`Exceeded] means s > cap, which is all
    the s-vs-sqrt(n) regime decision needs.  The run takes at most
    cap + O(D) rounds (for detection); an exceeded run counts its
    [cap + 1] rounds. *)

val regime :
  ?env:Sim.env -> Dsf_graph.Graph.t -> [ `Small_s of int | `Large_s ]
(** The Section 5 regime test: [`Small_s s] iff s stabilized within
    ceil(sqrt n) rounds (n-count, then Bellman-Ford). *)
