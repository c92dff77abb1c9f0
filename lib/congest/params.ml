module Graph = Dsf_graph.Graph

let count_nodes ?(env = Sim.default_env) g =
  let root = Bfs.max_id_root g in
  let tree, s1 = Bfs.build ~env g ~root in
  let n, s2 = Tree_ops.count_nodes ~env g ~tree in
  n, s1.Sim.rounds + s2.Sim.rounds

let diameter_upper_bound ?(env = Sim.default_env) g =
  let root = Bfs.max_id_root g in
  let tree, s1 = Bfs.build ~env g ~root in
  2 * tree.Bfs.height, s1.Sim.rounds

let estimate_s ?(env = Sim.default_env) ~cap g =
  let root = Bfs.max_id_root g in
  match
    Bellman_ford.run ~max_rounds:(cap + 1) ~env g ~sources:[ root, 0 ]
  with
  | res, stats ->
      (* Stabilization is detected O(D) after it happens; charge the
         detection by reporting the simulated rounds as-is (quiescence
         already includes the tail). *)
      `Stabilized res.Bellman_ford.rounds, stats.Sim.rounds
  | exception Sim.Round_limit a -> `Exceeded, a.Sim.at_round

let isqrt = Dsf_util.Intmath.isqrt

let regime ?(env = Sim.default_env) g =
  Sim.span env "regime_test" @@ fun () ->
  let n, r1 = count_nodes ~env g in
  let cap = isqrt n in
  match estimate_s ~env ~cap g with
  | `Stabilized s, r2 -> `Small_s s, r1 + r2
  | `Exceeded, r2 -> `Large_s, r1 + r2
