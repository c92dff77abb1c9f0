module Graph = Dsf_graph.Graph

let count_nodes ?(env = Sim.default_env) g =
  let root = Bfs.max_id_root g in
  let tree = Bfs.build ~env g ~root in
  Tree_ops.count_nodes ~env g ~tree

let diameter_upper_bound ?(env = Sim.default_env) g =
  let root = Bfs.max_id_root g in
  let tree = Bfs.build ~env g ~root in
  2 * tree.Bfs.height

let estimate_s ?(env = Sim.default_env) ~cap g =
  let root = Bfs.max_id_root g in
  (* Stabilization is detected O(D) after it happens; quiescence already
     includes that tail, so the run's own rounds are the cost. *)
  match
    Bellman_ford.run ~max_rounds:(cap + 1) ~env g ~sources:[ root, 0 ]
  with
  | res -> `Stabilized res.Bellman_ford.rounds
  | exception Sim.Round_limit _ -> `Exceeded

let isqrt = Dsf_util.Intmath.isqrt

let regime ?(env = Sim.default_env) g =
  Sim.span env "regime_test" @@ fun () ->
  let n = count_nodes ~env g in
  match estimate_s ~env ~cap:(isqrt n) g with
  | `Stabilized s -> `Small_s s
  | `Exceeded -> `Large_s
