module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Bfs = Dsf_congest.Bfs
module Bellman_ford = Dsf_congest.Bellman_ford
module Pipeline = Dsf_congest.Pipeline
module Ledger = Dsf_congest.Ledger
module Sim = Dsf_congest.Sim
module Bitsize = Dsf_util.Bitsize

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
}

let run g ~terminals =
  let terms = List.sort_uniq compare terminals in
  let n = Graph.n g in
  let m = Graph.m g in
  let ledger = Ledger.create () in
  let env = { Sim.default_env with ledger = Some ledger } in
  match terms with
  | [] | [ _ ] ->
      { solution = Array.make m false; weight = 0; ledger }
  | _ ->
      let tree = Bfs.build ~env g ~root:(Bfs.max_id_root g) in
      (* Voronoi decomposition around the terminals. *)
      let vor =
        Bellman_ford.run ~env g ~sources:(List.map (fun v -> v, 0) terms)
      in
      Dsf_congest.Exchange.all_neighbors ~env g
        ~payload_bits:(2 * Bitsize.id_bits ~n);
      (* Boundary edges witness terminal pairs; the pipelined filter selects
         an MST of the witnessed terminal graph (Mehlhorn's graph G'). *)
      let items u =
        Array.to_list (Graph.adj g u)
        |> List.filter_map (fun (nb, w, eid) ->
               let tu = vor.Bellman_ford.src_of.(u)
               and tv = vor.Bellman_ford.src_of.(nb) in
               if tu < 0 || tv < 0 || tu = tv then None
               else begin
                 let d =
                   vor.Bellman_ford.dist.(u) + w + vor.Bellman_ford.dist.(nb)
                 in
                 Some { Pipeline.key = (d, eid); a = tu; b = tv }
               end)
      in
      (* One width for every key, sized by 2 WD: the baseline reads WD
         centrally, once (the key bound only sets the message width). *)
      let key_bits =
        (3 * Bitsize.id_bits ~n)
        + Bitsize.weight_bits
            ~max_weight:
              (2 * Dsf_graph.Paths.diameter_weighted g
               [@lint.allow "central-oracle"])
      in
      let accepted =
        Pipeline.filtered_upcast ~env g ~tree ~vn:n ~pre:[] ~items ~cmp:compare
          ~bits:(fun _ -> key_bits)
      in
      Dsf_congest.Tree_ops.broadcast ~env g ~tree ~items:accepted
        ~bits:(fun _ -> 3 * Bitsize.id_bits ~n);
      (* Realize each selected boundary edge plus the Voronoi paths of its
         endpoints via a token flood up the Voronoi parent trees. *)
      let solution = Array.make m false in
      let seeds = Array.make n false in
      List.iter
        (fun (it : (int * int) Pipeline.item) ->
          let eid = snd it.Pipeline.key in
          solution.(eid) <- true;
          let u, v = Graph.endpoints g eid in
          seeds.(u) <- true;
          seeds.(v) <- true)
        accepted;
      let flood_edges =
        Dsf_core.Select.token_flood ~env g ~parent:vor.Bellman_ford.parent
          ~seeds
      in
      List.iter (fun eid -> solution.(eid) <- true) flood_edges;
      (* Minimal subtree via the F.3 pruning routine (simulated). *)
      let labels = Array.make n (-1) in
      List.iter (fun v -> labels.(v) <- 0) terms;
      let inst = Instance.make_ic g labels in
      let solution =
        (Dsf_core.Pruning.run ~env inst ~tree ~f:solution
           ~sigma:(Dsf_util.Intmath.isqrt n + 1))
          .Dsf_core.Pruning.pruned
      in
      { solution; weight = Graph.edge_set_weight g solution; ledger }
