module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find
module Bellman_ford = Dsf_congest.Bellman_ford
module Sim = Dsf_congest.Sim

type outcome = {
  extra_edges : bool array;
  reduced_terminal_count : int;
  reduced_label_count : int;
  charged_rounds : int;
  unassigned_terminals : int;
}

let isqrt = Dsf_util.Intmath.isqrt

let solve ?(env = Sim.default_env) ?(spanner_stretch = Some 3) inst ~f ~s_set
    ~diameter =
  let tspan name fn = Sim.span env name fn in
  let g = inst.Instance.graph in
  let n = Graph.n g in
  let m = Graph.m g in
  let extra = Array.make m false in
  match s_set with
  | [] ->
      {
        extra_edges = extra;
        reduced_terminal_count = 0;
        reduced_label_count = 0;
        charged_rounds = 0;
        unassigned_terminals = 0;
      }
  | _ ->
      (* T_v assignment: hop-limited Voronoi on the F-subgraph, simulated.
         Non-F edges get a weight beyond the radius cap, so they are never
         used; the cap itself is the O~(sqrt n) hop bound of Lemma G.1. *)
      let cap =
        6 * isqrt n * Int.max 1 (int_of_float (ceil (log (float_of_int (Int.max 2 n)))))
      in
      let big = cap + 1 in
      let weight_of eid = if f.(eid) then 1 else big in
      let res =
        tspan "t_v_assignment" (fun () ->
            Bellman_ford.run ~env g ~weight_of ~radius:cap
              ~sources:(List.map (fun v -> v, 0) s_set))
      in
      let assignment = res.Bellman_ford.src_of in
      (* Super-terminal index per S node with a nonempty terminal set. *)
      let members = Hashtbl.create 16 in
      let unassigned = ref 0 in
      Array.iteri
        (fun w l ->
          if l >= 0 then begin
            if assignment.(w) >= 0 then begin
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt members assignment.(w))
              in
              Hashtbl.replace members assignment.(w) (w :: prev)
            end
            else incr unassigned
          end)
        inst.Instance.labels;
      let supers = Hashtbl.fold (fun v _ acc -> v :: acc) members [] |> List.sort compare in
      let p = List.length supers in
      if p = 0 then
        {
          extra_edges = extra;
          reduced_terminal_count = 0;
          reduced_label_count = 0;
          charged_rounds = 0;
          unassigned_terminals = !unassigned;
        }
      else begin
        let proto_check = ref None in
        let super_index = Hashtbl.create p in
        List.iteri (fun i v -> Hashtbl.replace super_index v i) supers;
        (* Node -> reduced-graph id.  Terminals in some T_v map to the
           super node; everything else keeps an individual V_r node. *)
        let node_map = Array.make n (-1) in
        let next = ref p in
        for u = 0 to n - 1 do
          let assigned_terminal =
            inst.Instance.labels.(u) >= 0 && assignment.(u) >= 0
          in
          if assigned_terminal then
            node_map.(u) <- Hashtbl.find super_index assignment.(u)
          else begin
            node_map.(u) <- !next;
            incr next
          end
        done;
        let n_hat = !next in
        (* Min-weight edge per reduced pair, remembering the realizing
           original edge. *)
        let best : (int * int, int * int) Hashtbl.t = Hashtbl.create m in
        Array.iter
          (fun (e : Graph.edge) ->
            let a = node_map.(e.u) and b = node_map.(e.v) in
            if a <> b then begin
              let key = Int.min a b, Int.max a b in
              match Hashtbl.find_opt best key with
              | Some (w, _) when w <= e.w -> ()
              | _ -> Hashtbl.replace best key (e.w, e.id)
            end)
          (Graph.edges g);
        let triples = Hashtbl.fold (fun (a, b) (w, _) acc -> (a, b, w) :: acc) best [] in
        let g_hat = Graph.make ~n:n_hat triples in
        (* Reduced-graph edge id -> realizing original edge id. *)
        let orig_of_hat = Array.make (Graph.m g_hat) (-1) in
        Hashtbl.iter
          (fun (a, b) (_, orig_eid) ->
            match Graph.find_edge g_hat a b with
            | Some hat_eid -> orig_of_hat.(hat_eid) <- orig_eid
            | None -> ())
          best;
        (* Reduced labels: components of the label helper graph.  The
           distributed construction (Lemma G.12) is simulated: each T_v
           gossips its minimum label along the F-edges inside the cell,
           terminals then feed (own label, cell minimum) pairs into the
           pipelined forest filter, and the root broadcasts the resulting
           spanning forest of (Lambda, E_Lambda). *)
        let all_labels =
          Array.to_list inst.Instance.labels |> List.filter (fun l -> l >= 0)
          |> List.sort_uniq compare
        in
        let label_index = Hashtbl.create 16 in
        List.iteri (fun i l -> Hashtbl.replace label_index l i) all_labels;
        tspan "label_helper" (fun () ->
          let tree =
            Dsf_congest.Bfs.build ~env g
              ~root:(Dsf_congest.Bfs.max_id_root g)
          in
          (* Gossip stays inside each cell: enable only F-edges whose two
             endpoints share an assignment. *)
          let mask =
            Array.init m (fun eid ->
                let u, v = Graph.endpoints g eid in
                f.(eid) && assignment.(u) >= 0 && assignment.(u) = assignment.(v))
          in
          let values v =
            if inst.Instance.labels.(v) >= 0 && assignment.(v) >= 0 then
              Some (Hashtbl.find label_index inst.Instance.labels.(v))
            else None
          in
          let cell_min =
            Dsf_congest.Component_ops.component_min_item ~env g
              ~mask
              ~values
              ~cmp:compare
              ~bits:(fun _ -> Dsf_util.Bitsize.id_bits ~n)
          in
          let items w =
            if inst.Instance.labels.(w) >= 0 && assignment.(w) >= 0 then begin
              match cell_min.(w) with
              | Some mi ->
                  let li = Hashtbl.find label_index inst.Instance.labels.(w) in
                  if li = mi then []
                  else
                    [ { Dsf_congest.Pipeline.key = (Int.min li mi, Int.max li mi);
                        a = li; b = mi } ]
              | None -> []
            end
            else []
          in
          let helper_forest =
            Dsf_congest.Pipeline.filtered_upcast ~env g ~tree
              ~vn:(List.length all_labels) ~pre:[] ~items
              ~cmp:Dsf_util.Intmath.compare_pair
              ~bits:(fun _ -> 2 * Dsf_util.Bitsize.id_bits ~n)
          in
          Dsf_congest.Tree_ops.broadcast ~env g ~tree
            ~items:helper_forest
            ~bits:(fun _ -> 2 * Dsf_util.Bitsize.id_bits ~n);
          (* Consistency: the protocol's forest spans exactly the same
             label components as the definitional helper graph below. *)
          let proto_uf = Uf.create (List.length all_labels) in
          List.iter
            (fun (it : (int * int) Dsf_congest.Pipeline.item) ->
              ignore (Uf.union proto_uf it.Dsf_congest.Pipeline.a it.Dsf_congest.Pipeline.b))
            helper_forest;
          proto_check := Some proto_uf);
        let luf = Uf.create (List.length all_labels) in
        Hashtbl.iter
          (fun _ ws ->
            match ws with
            | [] -> ()
            | w0 :: rest ->
                let l0 = Hashtbl.find label_index inst.Instance.labels.(w0) in
                List.iter
                  (fun w ->
                    let l = Hashtbl.find label_index inst.Instance.labels.(w) in
                    ignore (Uf.union luf l0 l))
                  rest)
          members;
        (* The simulated Lemma G.12 forest must induce the same label
           partition as the definitional computation. *)
        (match !proto_check with
        | Some proto_uf ->
            List.iteri
              (fun i _ ->
                List.iteri
                  (fun j _ ->
                    if i < j then
                      assert (Uf.same proto_uf i j = Uf.same luf i j))
                  all_labels)
              all_labels
        | None -> ());
        let labels_hat = Array.make n_hat (-1) in
        List.iter
          (fun v ->
            let i = Hashtbl.find super_index v in
            match Hashtbl.find members v with
            | [] -> ()
            | w :: _ ->
                labels_hat.(i) <-
                  Uf.find luf (Hashtbl.find label_index inst.Instance.labels.(w)))
          supers;
        let inst_hat = Instance.make_ic g_hat labels_hat in
        let reduced_labels = Instance.component_count inst_hat in
        (* Solve following the [17] recipe: build a sparse spanner of the
           super-terminal metric, solve centrally ON THE SPANNER, and map
           its edges back to shortest paths.  (Without a stretch this
           degenerates to solving directly on the reduced graph.) *)
        let hat_solution =
          tspan "central_solve" @@ fun () ->
          match spanner_stretch with
          | None -> (Moat.run inst_hat).Moat.solution
          | Some stretch ->
              (* The [17] black box's internals, run centrally and
                 charged as sqrt n + D below. *)
              let metric =
                Array.init p (fun i ->
                    fst
                      (Dsf_graph.Paths.dijkstra g_hat ~src:i
                      [@lint.allow "central-oracle"]))
              in
              let sp =
                Dsf_graph.Spanner.greedy
                  ~dist:(fun i j -> metric.(i).(j))
                  ~points:p ~stretch
              in
              let sg =
                Graph.make ~n:p sp.Dsf_graph.Spanner.edges
              in
              let sg_labels = Array.sub labels_hat 0 p in
              let res_sg = Moat.run (Instance.make_ic sg sg_labels) in
              (* Realize each selected spanner edge as a shortest path in
                 the reduced graph. *)
              let hat_sol = Array.make (Graph.m g_hat) false in
              Array.iter
                (fun (e : Graph.edge) ->
                  if res_sg.Moat.solution.(e.id) then begin
                    match
                      Dsf_graph.Paths.shortest_path g_hat ~src:e.u ~dst:e.v
                      [@lint.allow "central-oracle"]
                    with
                    | Some (nodes, _) ->
                        List.iter
                          (fun eid -> hat_sol.(eid) <- true)
                          (Dsf_graph.Paths.path_edges g_hat nodes)
                    | None -> ()
                  end)
                (Graph.edges sg);
              hat_sol
        in
        Array.iteri
          (fun hat_eid selected ->
            if selected && orig_of_hat.(hat_eid) >= 0 then
              extra.(orig_of_hat.(hat_eid)) <- true)
          hat_solution;
        {
          extra_edges = extra;
          reduced_terminal_count = p;
          reduced_label_count = reduced_labels;
          charged_rounds = isqrt n + diameter;
          unassigned_terminals = !unassigned;
        }
      end
