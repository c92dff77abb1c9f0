module Graph = Dsf_graph.Graph
module Uf = Dsf_util.Union_find
module Bfs = Dsf_congest.Bfs
module Pipeline = Dsf_congest.Pipeline
module Ledger = Dsf_congest.Ledger
module Sim = Dsf_congest.Sim
module Bitsize = Dsf_util.Bitsize

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
  boruvka_iterations : int;
  fragments_after_phase1 : int;
}

let isqrt = Dsf_util.Intmath.isqrt

let ceil_log2 = Dsf_util.Intmath.ceil_log2

let run g =
  let n = Graph.n g in
  let m = Graph.m g in
  let threshold = isqrt n in
  let ledger = Ledger.create () in
  let env = { Sim.default_env with ledger = Some ledger } in
  let tree, _ = Bfs.build ~env g ~root:(Bfs.max_id_root g) in
  let uf = Uf.create n in
  let solution = Array.make m false in
  let iterations = ref 0 in
  let progress = ref true in
  let max_iter = ceil_log2 (max 2 threshold) + 2 in
  (* Phase 1: controlled Boruvka.  Small fragments propose their minimum
     outgoing edge; a maximal matching plus re-added proposals merge them.
     Every proposed minimum outgoing edge is an MST edge (cut property,
     weights made distinct by the (w, id) tie-break). *)
  while !progress && !iterations < max_iter do
    incr iterations;
    progress := false;
    (* The fragments' minimum-outgoing-edge discovery runs as a real gossip
       along the already-selected edges (Component_ops); the matching
       coordination below stays charged at its Cole-Vishkin bound. *)
    let gossip_values v =
      Array.to_list (Graph.adj g v)
      |> List.filter_map (fun (nb, w, _) ->
             if Uf.same uf v nb then None else Some (w, nb))
      |> function
      | [] -> None
      | l -> Some (List.fold_left min (List.hd l) l)
    in
    ignore
      (Dsf_congest.Component_ops.component_min_item ~env g ~mask:solution
         ~values:gossip_values ~cmp:compare
         ~bits:(fun _ ->
           Bitsize.id_bits ~n:(Graph.n g)
           + Bitsize.weight_bits ~max_weight:(Graph.max_weight g)));
    let proposal : (int, Graph.edge) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun (e : Graph.edge) ->
        let cu = Uf.find uf e.u and cv = Uf.find uf e.v in
        if cu <> cv then begin
          let consider c endpoint =
            if Uf.size uf endpoint < threshold then begin
              match Hashtbl.find_opt proposal c with
              | Some (best : Graph.edge) when (best.w, best.id) <= (e.w, e.id) -> ()
              | _ -> Hashtbl.replace proposal c e
            end
          in
          consider cu e.u;
          consider cv e.v
        end)
      (Graph.edges g);
    (* Greedy maximal matching on small-small proposals; unmatched small
       fragments keep theirs (at most a 3-hop merge chain results). *)
    let matched = Hashtbl.create 16 in
    let chosen = ref [] in
    let proposals_sorted =
      Hashtbl.fold (fun c e acc -> (c, e) :: acc) proposal []
      |> List.sort (fun (_, (a : Graph.edge)) (_, (b : Graph.edge)) ->
             compare (a.w, a.id) (b.w, b.id))
    in
    List.iter
      (fun (_, (e : Graph.edge)) ->
        let cu = Uf.find uf e.u and cv = Uf.find uf e.v in
        if
          Uf.size uf e.u < threshold && Uf.size uf e.v < threshold
          && (not (Hashtbl.mem matched cu))
          && not (Hashtbl.mem matched cv)
        then begin
          Hashtbl.replace matched cu ();
          Hashtbl.replace matched cv ();
          chosen := e :: !chosen
        end)
      proposals_sorted;
    List.iter
      (fun (c, e) -> if not (Hashtbl.mem matched c) then chosen := e :: !chosen)
      proposals_sorted;
    List.iter
      (fun (e : Graph.edge) ->
        if Uf.union uf e.u e.v then begin
          solution.(e.id) <- true;
          progress := true
        end)
      !chosen;
    if !progress then
      Sim.charge env
        (Printf.sprintf "GKP: Boruvka iteration %d matching ([6])" !iterations)
        ((4 * Dsf_util.Intmath.ceil_log2 (max 2 threshold)) + 8)
  done;
  let fragments = Uf.n_sets uf in
  (* Phase 2: at most sqrt(n) fragments remain; the remaining MST edges are
     selected by the pipelined Kruskal filter, genuinely simulated.  Each
     inter-fragment edge is proposed by its smaller endpoint. *)
  if fragments > 1 then begin
    let pre =
      Array.to_list (Graph.edges g)
      |> List.filter_map (fun (e : Graph.edge) ->
             if solution.(e.id) then Some (e.u, e.v) else None)
    in
    let items v =
      Array.to_list (Graph.edges g)
      |> List.filter_map (fun (e : Graph.edge) ->
             if min e.u e.v = v && not (Uf.same uf e.u e.v) then
               Some { Pipeline.key = (e.w, e.id); a = e.u; b = e.v }
             else None)
    in
    let accepted, _ =
      Pipeline.filtered_upcast ~env g ~tree ~vn:n ~pre ~items ~cmp:compare
        ~bits:(fun _ ->
          (2 * Bitsize.id_bits ~n)
          + Bitsize.weight_bits ~max_weight:(Graph.max_weight g))
    in
    List.iter (fun it -> solution.(snd it.Pipeline.key) <- true) accepted
  end;
  {
    solution;
    weight = Graph.edge_set_weight g solution;
    ledger;
    boruvka_iterations = !iterations;
    fragments_after_phase1 = fragments;
  }
