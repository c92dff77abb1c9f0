module Graph = Dsf_graph.Graph
module Bfs = Dsf_congest.Bfs
module Ledger = Dsf_congest.Ledger
module Pipeline = Dsf_congest.Pipeline
module Sim = Dsf_congest.Sim
module Bitsize = Dsf_util.Bitsize

type result = {
  solution : bool array;
  weight : int;
  ledger : Ledger.t;
}

let run g =
  let n = Graph.n g in
  let ledger = Ledger.create () in
  let env = { Sim.default_env with ledger = Some ledger } in
  let tree = Bfs.build ~env g ~root:(Bfs.max_id_root g) in
  (* Each edge is held by its smaller endpoint; the filtered upcast
     delivers exactly the MST to the root. *)
  let items v =
    Array.to_list (Graph.edges g)
    |> List.filter_map (fun (e : Graph.edge) ->
           if min e.u e.v = v then
             Some { Pipeline.key = (e.w, e.id); a = e.u; b = e.v }
           else None)
  in
  let accepted =
    Pipeline.filtered_upcast ~env g ~tree ~vn:n ~pre:[] ~items ~cmp:compare
      ~bits:(fun _ ->
        (2 * Bitsize.id_bits ~n) + Bitsize.weight_bits ~max_weight:(Graph.max_weight g))
  in
  let solution = Array.make (Graph.m g) false in
  List.iter (fun it -> solution.(snd it.Pipeline.key) <- true) accepted;
  { solution; weight = Graph.edge_set_weight g solution; ledger }
