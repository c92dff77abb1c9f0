module Graph = Dsf_graph.Graph
module Bitsize = Dsf_util.Bitsize

let count_nodes ?(env = Sim.default_env) g =
  let root = Bfs.max_id_root g in
  let tree = Bfs.build ~env g ~root in
  Tree_ops.count_nodes ~env g ~tree

let diameter_upper_bound ?(env = Sim.default_env) g =
  let root = Bfs.max_id_root g in
  let tree = Bfs.build ~env g ~root in
  2 * tree.Bfs.height

let isqrt = Dsf_util.Intmath.isqrt

type estimate = {
  n : int;
  tree : Bfs.tree;
  s : int option;
  wd_bound : int;
}

let value_bits x = Bitsize.int_bits (Int.max 1 x)

let estimate ?(env = Sim.default_env) ?cap g =
  let root = Bfs.max_id_root g in
  let tree = Bfs.build ~env g ~root in
  let n = Tree_ops.count_nodes ~env g ~tree in
  let cap = Option.value cap ~default:(isqrt n) in
  (* Stabilization is detected O(D) after it happens; quiescence already
     includes that tail, so the run's own rounds are the estimate. *)
  let bf =
    match Bellman_ford.run ~max_rounds:(cap + 1) ~env g ~sources:[ root, 0 ] with
    | res -> Some res
    | exception Sim.Round_limit _ -> None
  in
  let max_at_root value =
    Tree_ops.aggregate ~env g ~tree ~value ~combine:Int.max ~bits:value_bits
  in
  let wd_bound =
    match bf with
    | Some res ->
        (* WD <= 2 ecc(root), by the triangle inequality through the root. *)
        2 * max_at_root (fun v -> res.Bellman_ford.dist.(v))
    | None ->
        (* Any two nodes are joined through the root by at most 2 height
           edges, and by a simple path of at most n - 1. *)
        Int.min (n - 1) (2 * tree.Bfs.height)
        * max_at_root (fun v ->
              Array.fold_left (fun acc (_, w, _) -> Int.max acc w) 0 (Graph.adj g v))
  in
  Tree_ops.broadcast ~env g ~tree ~items:[ wd_bound ] ~bits:value_bits;
  { n; tree; s = Option.map (fun r -> r.Bellman_ford.rounds) bf; wd_bound }

let regime ?(env = Sim.default_env) g =
  Sim.span env "regime_test" @@ fun () -> estimate ~env g
