open Dsf_graph
open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* ------------------------------------------------------------------- Sim *)

(* A trivial flooding protocol: node 0 floods a token; everyone records the
   round they first heard it.  Checks round accounting = BFS depth. *)
type flood_state = { heard : int option; relayed : bool }

let flood_protocol root : (flood_state, unit) Classic.protocol =
  {
    init =
      (fun view ->
        if view.Sim.node = root then { heard = Some 0; relayed = false }
        else { heard = None; relayed = false });
    step =
      (fun view ~round st ~inbox ->
        let st =
          match st.heard, inbox with
          | None, _ :: _ -> { st with heard = Some round }
          | _ -> st
        in
        if st.heard <> None && not st.relayed then
          ( { st with relayed = true },
            Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()) )
        else st, []);
    is_done = (fun st -> st.heard <> None && st.relayed);
    msg_bits = (fun () -> 1);
  }

let test_sim_flood_rounds () =
  let g = Gen.path 6 in
  let states, stats = Classic.run g (flood_protocol 0) in
  Array.iteri
    (fun v st ->
      match st.heard with
      | Some r ->
          (* Node v hears the token in round v (delivery next round after
             send in round v-1). *)
          check Alcotest.int (Printf.sprintf "node %d heard at" v) v r
      | None -> Alcotest.fail "all nodes must hear the flood")
    states;
  Alcotest.(check bool) "rounds >= path length" true (stats.Sim.rounds >= 5)

let test_sim_rejects_non_neighbor () =
  let g = Gen.path 3 in
  let bad : (unit, unit) Classic.protocol =
    {
      init = (fun _ -> ());
      step =
        (fun view ~round st ~inbox:_ ->
          if view.Sim.node = 0 && round = 0 then st, [ 2, () ] else st, []);
      is_done = (fun () -> false);
      msg_bits = (fun () -> 1);
    }
  in
  Alcotest.check_raises "non-neighbor send"
    (Invalid_argument "Sim.run_flat: message to non-neighbor") (fun () ->
      ignore (Classic.run g bad))

let test_sim_round_limit () =
  let g = Gen.path 2 in
  let chatty : (unit, unit) Classic.protocol =
    {
      init = (fun _ -> ());
      step =
        (fun view ~round:_ st ~inbox:_ ->
          st, Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()));
      is_done = (fun () -> false);
      msg_bits = (fun () -> 1);
    }
  in
  (match Classic.run ~max_rounds:10 g chatty with
  | exception Sim.Round_limit a ->
      check Alcotest.int "limit" 10 a.Sim.at_round;
      check Alcotest.int "snapshot rounds" 10 a.Sim.snapshot.Sim.rounds;
      Alcotest.(check bool)
        "post-mortem has traffic" true
        (a.Sim.recent <> [] && List.for_all (fun (_, l) -> l <> []) a.Sim.recent)
  | _ -> Alcotest.fail "expected Round_limit")

let test_sim_bit_accounting () =
  let g = Gen.path 2 in
  let once : (bool, unit) Classic.protocol =
    {
      init = (fun view -> view.Sim.node <> 0);
      step =
        (fun _view ~round:_ sent ~inbox:_ ->
          if not sent then true, [ 1, () ] else true, []);
      is_done = Fun.id;
      msg_bits = (fun () -> 7);
    }
  in
  let _, stats = Classic.run g once in
  check Alcotest.int "one message" 1 stats.Sim.messages;
  check Alcotest.int "seven bits" 7 stats.Sim.total_bits;
  check Alcotest.int "max edge-round bits" 7 stats.Sim.max_edge_round_bits;
  check Alcotest.int "no violations" 0 stats.Sim.budget_violations

(* An int-message relay down a path: node 0 injects one token every
   [gap] rounds until its count runs out (its state is the rounds left),
   every other node forwards what it receives to its successor.  States
   and messages are immediate ints. *)
let relay_protocol ~tokens ~gap : (int, int) Sim.flat_protocol =
  {
    fp_init = (fun view -> if view.Sim.node = 0 then tokens * gap else 0);
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        if v = 0 then begin
          if st mod gap = 0 then emit ~dst:1 st;
          st - 1
        end
        else begin
          if v + 1 < view.Sim.n then
            for i = 0 to Sim.inbox_len inbox - 1 do
              emit ~dst:(v + 1) (Sim.inbox_msg inbox i)
            done;
          st
        end);
    fp_is_done = (fun st -> st = 0);
    fp_msg_bits = (fun _ -> 8);
  }

let test_sim_steady_state_allocates_nothing () =
  (* The engine's per-run setup (views, states, arenas, each node's first
     inbox buffers, and its round buffers grown to the peak of 8 tokens
     in flight) is the same for both runs; only the number of rounds
     differs.  A steady-state round that allocated anything would show up
     in the difference, one word or more per extra round. *)
  let g = Gen.path 256 in
  let run tokens =
    let proto = relay_protocol ~tokens ~gap:32 in
    let w0 = Gc.minor_words () in
    let _, stats = Sim.run_flat g proto in
    Gc.minor_words () -. w0, stats.Sim.rounds
  in
  ignore (run 8);
  let w8, r8 = run 8 in
  let w64, r64 = run 64 in
  check Alcotest.int "extra rounds" (56 * 32) (r64 - r8);
  if w64 -. w8 >= float_of_int (r64 - r8) then
    Alcotest.failf
      "steady state allocates: %.0f minor words for %d rounds vs %.0f for %d"
      w64 r64 w8 r8

(* ---------------------------------------------------------------- Ledger *)

let test_ledger () =
  (* The engine counts the simulated rounds of every run whose env
     carries the ledger; the algorithm only names its charges. *)
  let g = Gen.path 11 in
  let l = Ledger.create () in
  let env = { Sim.default_env with ledger = Some l } in
  let _, s1 = Sim.measure ~env (fun env -> Bfs.build ~env g ~root:0) in
  Sim.charge env "black box" 5;
  let _, s2 = Sim.measure ~env (fun env -> Bfs.build ~env g ~root:10) in
  check Alcotest.int "simulated" (s1.Sim.rounds + s2.Sim.rounds)
    (Ledger.simulated l);
  check Alcotest.int "charged" 5 (Ledger.charged l);
  check Alcotest.int "total" (s1.Sim.rounds + s2.Sim.rounds + 5)
    (Ledger.total l);
  check Alcotest.(list (pair string int)) "charges" [ "black box", 5 ]
    (Ledger.charges l);
  let l2 = Ledger.create () in
  Ledger.merge_into ~dst:l2 l;
  check Alcotest.int "merged total" (Ledger.total l) (Ledger.total l2)

(* ------------------------------------------------------------------- Bfs *)

let test_bfs_tree_depths () =
  let g = Gen.grid ~rows:4 ~cols:4 in
  let tree = Bfs.build g ~root:0 in
  let dist, _ = Paths.bfs g ~src:0 in
  check Alcotest.(array int) "depths = BFS distances" dist tree.Bfs.depth;
  check Alcotest.int "height = ecc(root)" (Paths.eccentricity_unweighted g 0)
    tree.Bfs.height

let test_bfs_tree_parents_consistent () =
  let g = Gen.random_connected (rng 1) ~n:40 ~extra_edges:40 ~max_w:5 in
  let tree = Bfs.build g ~root:7 in
  Array.iteri
    (fun v p ->
      if v <> 7 then begin
        Alcotest.(check bool) "parent is neighbor" true
          (Graph.find_edge g v p <> None);
        check Alcotest.int "depth = parent depth + 1"
          (tree.Bfs.depth.(p) + 1) tree.Bfs.depth.(v)
      end)
    tree.Bfs.parent

let test_bfs_rounds_close_to_depth () =
  let g = Gen.path 20 in
  let tree, stats = Sim.measure (fun env -> Bfs.build ~env g ~root:0) in
  Alcotest.(check bool) "rounds within constant of height" true
    (stats.Sim.rounds <= tree.Bfs.height + 3)

(* -------------------------------------------------------------- Tree_ops *)

let tree_of g root = Bfs.build g ~root

let test_upcast_collects_all () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let tree = tree_of g 0 in
  let items =
    Tree_ops.upcast g ~tree
      ~items:(fun v -> [ v; v + 100 ])
      ~bits:(fun x -> Dsf_util.Bitsize.int_bits (max 1 x))
  in
  check Alcotest.int "count" 18 (List.length items);
  List.iter
    (fun v ->
      Alcotest.(check bool) "contains v" true (List.mem v items);
      Alcotest.(check bool) "contains v+100" true (List.mem (v + 100) items))
    (List.init 9 Fun.id)

let test_upcast_pipelining_rounds () =
  (* Path of length L with all items at the far end: rounds ~ L + #items,
     not L * #items. *)
  let l = 15 and nitems = 10 in
  let g = Gen.path (l + 1) in
  let tree = tree_of g 0 in
  let items v = if v = l then List.init nitems Fun.id else [] in
  let _, stats =
    Sim.measure (fun env ->
        Tree_ops.upcast ~env g ~tree ~items ~bits:(fun _ -> 4))
  in
  Alcotest.(check bool) "pipelined"
    true
    (stats.Sim.rounds <= l + nitems + 3)

let test_upcast_dedup () =
  let g = Gen.star 6 in
  let tree = tree_of g 0 in
  (* Every leaf holds the same two keyed items. *)
  let items v = if v = 0 then [] else [ "a", v; "b", v ] in
  let got =
    Tree_ops.upcast_dedup g ~tree ~items ~key:fst ~bits:(fun _ -> 8)
  in
  check Alcotest.int "one per key" 2 (List.length got)

let test_broadcast_reaches_all () =
  let g = Gen.random_connected (rng 4) ~n:25 ~extra_edges:10 ~max_w:5 in
  let tree = tree_of g 3 in
  let payload = [ 10; 20; 30 ] in
  (* [~bits:Fun.id] names each sent item; lossless, a send is a delivery. *)
  let r, env = Flight.env () in
  let (), stats =
    Sim.measure ~env (fun env ->
        Tree_ops.broadcast ~env g ~tree ~items:payload ~bits:Fun.id)
  in
  let got = Array.make (Graph.n g) [] in
  List.iter
    (fun (src, dst, bits) -> got.(dst) <- got.(dst) @ [ src, bits ])
    (Flight.sends r);
  Array.iteri
    (fun v got ->
      check Alcotest.(list (pair int int)) "full list, in order, from the parent"
        (if v = tree.Bfs.root then []
         else List.map (fun it -> tree.Bfs.parent.(v), it) payload)
        got)
    got;
  Alcotest.(check bool) "pipelined rounds" true
    (stats.Sim.rounds <= tree.Bfs.height + List.length payload + 3)

let test_aggregate_sum_and_count () =
  let g = Gen.grid ~rows:4 ~cols:5 in
  let tree = tree_of g 0 in
  let total =
    Tree_ops.aggregate g ~tree
      ~value:(fun v -> v)
      ~combine:( + )
      ~bits:(fun _ -> 10)
  in
  check Alcotest.int "sum of ids" (19 * 20 / 2) total;
  let n =
    Tree_ops.aggregate g ~tree ~value:(fun _ -> 1) ~combine:( + )
      ~bits:(fun _ -> 10)
  in
  check Alcotest.int "count = n" 20 n

let test_aggregate_min () =
  let g = Gen.cycle 9 in
  let tree = tree_of g 4 in
  let m =
    Tree_ops.aggregate g ~tree
      ~value:(fun v -> 100 - v)
      ~combine:min
      ~bits:(fun _ -> 8)
  in
  check Alcotest.int "min" 92 m

(* ---------------------------------------------------------- Bellman_ford *)

let test_bf_matches_dijkstra () =
  let g = Gen.random_connected (rng 6) ~n:30 ~extra_edges:40 ~max_w:12 in
  let res = Bellman_ford.sssp g ~src:0 in
  let dist, _ = Paths.dijkstra g ~src:0 in
  check Alcotest.(array int) "distances agree" dist res.Bellman_ford.dist

let test_bf_voronoi_assignment () =
  let g = Gen.path 7 in
  let res = Bellman_ford.run g ~sources:[ 0, 0; 6, 0 ] in
  (* Node 3 is equidistant; tie goes to smaller source id 0. *)
  check Alcotest.int "tie to smaller source" 0 res.Bellman_ford.src_of.(3);
  check Alcotest.int "left side" 0 res.Bellman_ford.src_of.(1);
  check Alcotest.int "right side" 6 res.Bellman_ford.src_of.(5)

let test_bf_initial_distances () =
  (* Source 6 starts handicapped by 10: source 0 captures the whole path,
     including node 6 itself (dist 6 < handicap 10). *)
  let g = Gen.path 7 in
  let res = Bellman_ford.run g ~sources:[ 0, 0; 6, 10 ] in
  check Alcotest.int "node 5 closer to 0" 0 res.Bellman_ford.src_of.(5);
  check Alcotest.int "source 6 itself captured" 0 res.Bellman_ford.src_of.(6);
  check Alcotest.int "dist via relaxation" 6 res.Bellman_ford.dist.(6);
  (* A mild handicap of 2 shifts the boundary by one node instead. *)
  let res2 = Bellman_ford.run g ~sources:[ 0, 0; 6, 2 ] in
  check Alcotest.int "node 4 to 0 under mild handicap" 0
    res2.Bellman_ford.src_of.(4);
  check Alcotest.int "node 5 still to 6" 6 res2.Bellman_ford.src_of.(5)

let test_bf_radius_cap () =
  let g = Gen.path 10 in
  let res = Bellman_ford.run g ~radius:3 ~sources:[ 0, 0 ] in
  check Alcotest.int "inside" 0 res.Bellman_ford.src_of.(3);
  check Alcotest.int "outside unreached" (-1) res.Bellman_ford.src_of.(4)

let test_bf_weight_override () =
  (* Zero out the heavy edge: distances collapse. *)
  let g = Graph.make ~n:3 [ 0, 1, 10; 1, 2, 1 ] in
  let res =
    Bellman_ford.run g ~weight_of:(fun _ -> 0) ~sources:[ 0, 0 ]
  in
  check Alcotest.(array int) "all zero" [| 0; 0; 0 |] res.Bellman_ford.dist

let test_bf_parent_tree () =
  let g = Gen.random_connected (rng 8) ~n:25 ~extra_edges:20 ~max_w:9 in
  let res = Bellman_ford.sssp g ~src:5 in
  Array.iteri
    (fun v p ->
      if v <> 5 then begin
        Alcotest.(check bool) "parent adjacent" true (Graph.find_edge g v p <> None);
        let w =
          match Graph.find_edge g v p with
          | Some id -> (Graph.edge g id).Graph.w
          | None -> assert false
        in
        check Alcotest.int "dist consistent"
          (res.Bellman_ford.dist.(p) + w)
          res.Bellman_ford.dist.(v)
      end)
    res.Bellman_ford.parent

let test_bf_rounds_near_s () =
  (* On an unweighted path, BF stabilizes in ~s rounds. *)
  let g = Gen.path 30 in
  let res = Bellman_ford.sssp g ~src:0 in
  Alcotest.(check bool) "rounds close to s" true
    (res.Bellman_ford.rounds >= 29 && res.Bellman_ford.rounds <= 35)

let prop_bf_equals_dijkstra =
  QCheck.Test.make ~name:"distributed BF = centralized dijkstra" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:20 ~extra_edges:15 ~max_w:8 in
      let res = Bellman_ford.sssp g ~src:0 in
      let dist, _ = Paths.dijkstra g ~src:0 in
      res.Bellman_ford.dist = dist)

(* -------------------------------------------------------------- Pipeline *)

let test_select_forest_is_kruskal () =
  let g = Gen.random_connected (rng 9) ~n:20 ~extra_edges:25 ~max_w:40 in
  let items =
    Array.to_list (Graph.edges g)
    |> List.map (fun (e : Graph.edge) ->
           { Pipeline.key = (e.w, e.id); a = e.u; b = e.v })
  in
  let forest = Pipeline.select_forest ~vn:20 ~pre:[] ~cmp:compare items in
  let weight = List.fold_left (fun acc it -> acc + fst it.Pipeline.key) 0 forest in
  check Alcotest.int "kruskal weight" (Mst.weight g) weight

let test_filtered_upcast_mst () =
  (* Distribute each edge to its smaller endpoint; the filtered upcast must
     deliver the MST to the root. *)
  let g = Gen.random_connected (rng 10) ~n:25 ~extra_edges:30 ~max_w:30 in
  let tree = tree_of g 0 in
  let items v =
    Array.to_list (Graph.edges g)
    |> List.filter_map (fun (e : Graph.edge) ->
           if min e.u e.v = v then
             Some { Pipeline.key = (e.w, e.id); a = e.u; b = e.v }
           else None)
  in
  let accepted =
    Pipeline.filtered_upcast g ~tree ~vn:25 ~pre:[] ~items ~cmp:compare
      ~bits:(fun _ -> 30)
  in
  let weight = List.fold_left (fun acc it -> acc + fst it.Pipeline.key) 0 accepted in
  check Alcotest.int "MST via pipeline" (Mst.weight g) weight;
  check Alcotest.int "n-1 edges" 24 (List.length accepted)

let test_filtered_upcast_respects_pre () =
  (* With 0 and 1 pre-connected, an item joining them is filtered out. *)
  let g = Gen.path 4 in
  let tree = tree_of g 0 in
  let items v =
    if v = 3 then
      [
        { Pipeline.key = 1; a = 0; b = 1 };
        { Pipeline.key = 2; a = 1; b = 2 };
      ]
    else []
  in
  let accepted =
    Pipeline.filtered_upcast g ~tree ~vn:3 ~pre:[ 0, 1 ] ~items ~cmp:compare
      ~bits:(fun _ -> 8)
  in
  check Alcotest.int "only one survives" 1 (List.length accepted);
  check Alcotest.int "the 1-2 item" 2 (List.hd accepted).Pipeline.key

let test_filtered_upcast_ascending_at_root () =
  let g = Gen.star 8 in
  let tree = tree_of g 0 in
  let items v = if v = 0 then [] else [ { Pipeline.key = 100 - v; a = 0; b = v } ] in
  let accepted =
    Pipeline.filtered_upcast g ~tree ~vn:8 ~pre:[] ~items ~cmp:compare
      ~bits:(fun _ -> 8)
  in
  let keys = List.map (fun it -> it.Pipeline.key) accepted in
  check Alcotest.(list int) "ascending order" (List.sort compare keys) keys;
  check Alcotest.int "all accepted" 7 (List.length accepted)

let test_filtered_upcast_pipelining_rounds () =
  let l = 12 and nitems = 8 in
  let g = Gen.path (l + 1) in
  let tree = tree_of g 0 in
  let items v =
    if v = l then
      List.init nitems (fun i -> { Pipeline.key = i; a = 2 * i; b = (2 * i) + 1 })
    else []
  in
  let accepted, stats =
    Sim.measure (fun env ->
        Pipeline.filtered_upcast ~env g ~tree ~vn:(2 * nitems) ~pre:[] ~items
          ~cmp:compare ~bits:(fun _ -> 8))
  in
  check Alcotest.int "all items" nitems (List.length accepted);
  Alcotest.(check bool) "rounds ~ depth + items" true
    (stats.Sim.rounds <= l + nitems + 5)

let test_filtered_upcast_early_stop () =
  (* The root aborts the collection after the second accepted item
     (Corollary 4.16's stop); rounds stay well below a full drain. *)
  let l = 30 in
  let g = Gen.path (l + 1) in
  let tree = tree_of g 0 in
  let items v =
    if v = l then
      List.init 20 (fun i -> { Pipeline.key = i; a = 2 * i; b = (2 * i) + 1 })
    else []
  in
  let accepted, stats =
    Sim.measure (fun env ->
        Pipeline.filtered_upcast ~env
          ~stop_at_root:(fun acc -> List.length acc >= 2)
          g ~tree ~vn:40 ~pre:[] ~items ~cmp:compare
          ~bits:(fun _ -> 8))
  in
  check Alcotest.int "stopped at two" 2 (List.length accepted);
  Alcotest.(check bool) "aborted early" true
    (stats.Sim.rounds <= l + 6)

let prop_filtered_upcast_matches_centralized =
  QCheck.Test.make
    ~name:"distributed filtered upcast = centralized select_forest" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:18 ~extra_edges:20 ~max_w:25 in
      let vn = 10 in
      (* Random items scattered over random holders. *)
      let items_all =
        List.init 25 (fun i ->
            let a = Dsf_util.Rng.int r vn and b = Dsf_util.Rng.int r vn in
            if a = b then None
            else Some (Dsf_util.Rng.int r 18, { Pipeline.key = i; a; b }))
        |> List.filter_map Fun.id
      in
      let items v = List.filter (fun (h, _) -> h = v) items_all |> List.map snd in
      (* A random non-empty template of pre-joined virtual nodes (pairs
         may repeat or close cycles among themselves). *)
      let pre =
        List.init
          (1 + Dsf_util.Rng.int r 5)
          (fun _ -> Dsf_util.Rng.int r vn, Dsf_util.Rng.int r vn)
      in
      let tree = tree_of g 0 in
      let accepted =
        Pipeline.filtered_upcast g ~tree ~vn ~pre ~items ~cmp:compare
          ~bits:(fun _ -> 16)
      in
      let reference =
        Pipeline.select_forest ~vn ~pre ~cmp:compare (List.map snd items_all)
      in
      accepted = reference)

let suites =
  [
    ( "congest.sim",
      [
        Alcotest.test_case "flood rounds" `Quick test_sim_flood_rounds;
        Alcotest.test_case "rejects non-neighbor" `Quick test_sim_rejects_non_neighbor;
        Alcotest.test_case "round limit" `Quick test_sim_round_limit;
        Alcotest.test_case "bit accounting" `Quick test_sim_bit_accounting;
        Alcotest.test_case "steady state allocates nothing" `Quick
          test_sim_steady_state_allocates_nothing;
      ] );
    ("congest.ledger", [ Alcotest.test_case "ledger" `Quick test_ledger ]);
    ( "congest.bfs",
      [
        Alcotest.test_case "depths" `Quick test_bfs_tree_depths;
        Alcotest.test_case "parents consistent" `Quick test_bfs_tree_parents_consistent;
        Alcotest.test_case "rounds ~ depth" `Quick test_bfs_rounds_close_to_depth;
      ] );
    ( "congest.tree_ops",
      [
        Alcotest.test_case "upcast collects all" `Quick test_upcast_collects_all;
        Alcotest.test_case "upcast pipelines" `Quick test_upcast_pipelining_rounds;
        Alcotest.test_case "upcast dedup" `Quick test_upcast_dedup;
        Alcotest.test_case "broadcast" `Quick test_broadcast_reaches_all;
        Alcotest.test_case "aggregate sum/count" `Quick test_aggregate_sum_and_count;
        Alcotest.test_case "aggregate min" `Quick test_aggregate_min;
      ] );
    ( "congest.bellman_ford",
      [
        Alcotest.test_case "matches dijkstra" `Quick test_bf_matches_dijkstra;
        Alcotest.test_case "voronoi tie-break" `Quick test_bf_voronoi_assignment;
        Alcotest.test_case "initial distances" `Quick test_bf_initial_distances;
        Alcotest.test_case "radius cap" `Quick test_bf_radius_cap;
        Alcotest.test_case "weight override" `Quick test_bf_weight_override;
        Alcotest.test_case "parent tree consistent" `Quick test_bf_parent_tree;
        Alcotest.test_case "rounds ~ s" `Quick test_bf_rounds_near_s;
        qtest prop_bf_equals_dijkstra;
      ] );
    ( "congest.pipeline",
      [
        Alcotest.test_case "select_forest = kruskal" `Quick test_select_forest_is_kruskal;
        Alcotest.test_case "filtered upcast MST" `Quick test_filtered_upcast_mst;
        Alcotest.test_case "respects pre-connections" `Quick test_filtered_upcast_respects_pre;
        Alcotest.test_case "ascending at root" `Quick test_filtered_upcast_ascending_at_root;
        Alcotest.test_case "pipelining rounds" `Quick test_filtered_upcast_pipelining_rounds;
        Alcotest.test_case "early stop" `Quick test_filtered_upcast_early_stop;
        qtest prop_filtered_upcast_matches_centralized;
      ] );
  ]
