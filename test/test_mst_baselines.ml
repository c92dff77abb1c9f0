(* Tests for the GKP-style MST, leader election, and a few simulator
   corners not covered elsewhere. *)

open Dsf_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* ---------------------------------------------------------------- Mst_gkp *)

let test_gkp_exact_on_fixed_graphs () =
  List.iter
    (fun (name, g) ->
      let res = Dsf_baseline.Mst_gkp.run g in
      check Alcotest.int (name ^ " weight") (Mst.weight g)
        res.Dsf_baseline.Mst_gkp.weight;
      Alcotest.(check bool) (name ^ " spanning") true
        (Mst.is_spanning_tree g res.Dsf_baseline.Mst_gkp.solution))
    [
      "grid", Gen.reweight (rng 1) ~max_w:9 (Gen.grid ~rows:5 ~cols:6);
      "cycle", Gen.reweight (rng 2) ~max_w:9 (Gen.cycle 20);
      "dense", Gen.random_connected (rng 3) ~n:25 ~extra_edges:120 ~max_w:30;
      "path", Gen.path 15;
    ]

let test_gkp_fragment_bound () =
  let g = Gen.random_connected (rng 4) ~n:100 ~extra_edges:150 ~max_w:20 in
  let res = Dsf_baseline.Mst_gkp.run g in
  (* After phase 1, at most ~sqrt(n) fragments remain. *)
  Alcotest.(check bool) "fragments <= 2*sqrt n" true
    (res.Dsf_baseline.Mst_gkp.fragments_after_phase1 <= 20);
  Alcotest.(check bool) "few Boruvka iterations" true
    (res.Dsf_baseline.Mst_gkp.boruvka_iterations <= 8)

let test_gkp_beats_pipelined_at_scale () =
  let g = Gen.random_connected (rng 5) ~n:300 ~extra_edges:300 ~max_w:40 in
  let gkp = Dsf_baseline.Mst_gkp.run g in
  let plain = Dsf_baseline.Mst_distributed.run g in
  check Alcotest.int "same weight" plain.Dsf_baseline.Mst_distributed.weight
    gkp.Dsf_baseline.Mst_gkp.weight;
  Alcotest.(check bool) "GKP needs fewer rounds" true
    (Dsf_congest.Ledger.total gkp.Dsf_baseline.Mst_gkp.ledger
    < Dsf_congest.Ledger.total plain.Dsf_baseline.Mst_distributed.ledger)

let prop_gkp_equals_kruskal =
  QCheck.Test.make ~name:"GKP MST = Kruskal on random graphs" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 15 + Dsf_util.Rng.int r 40 in
      let g = Gen.random_connected r ~n ~extra_edges:(2 * n) ~max_w:25 in
      (Dsf_baseline.Mst_gkp.run g).Dsf_baseline.Mst_gkp.weight = Mst.weight g)

(* ----------------------------------------------------------------- Leader *)

let test_leader_elects_max_id () =
  List.iter
    (fun g ->
      let res = Dsf_congest.Leader.elect g in
      check Alcotest.int "max id wins" (Graph.n g - 1)
        res.Dsf_congest.Leader.leader)
    [ Gen.path 10; Gen.star 8; Gen.grid ~rows:3 ~cols:4 ]

let test_leader_rounds_near_diameter () =
  let g = Gen.path 30 in
  let _, stats =
    Dsf_congest.Sim.measure (fun env -> Dsf_congest.Leader.elect ~env g)
  in
  (* Information from node 29 must reach node 0: >= D rounds. *)
  Alcotest.(check bool) "at least D" true (stats.Dsf_congest.Sim.rounds >= 29);
  Alcotest.(check bool) "within constant of D" true
    (stats.Dsf_congest.Sim.rounds <= 29 + 4)

let prop_leader_on_random_graphs =
  QCheck.Test.make ~name:"leader election agrees everywhere" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:30 ~extra_edges:20 ~max_w:5 in
      (Dsf_congest.Leader.elect g).Dsf_congest.Leader.leader = 29)

(* ---------------------------------------------------------- Component_ops *)

let test_gossip_per_component () =
  (* Two mask-components on a path: edges 0-1, 1-2 enabled; 3-4 enabled;
     edge 2-3 disabled splits them. *)
  let g = Gen.path 5 in
  let mask = [| true; true; false; true |] in
  let values v = Some (10 * (v + 1)) in
  let results =
    Dsf_congest.Component_ops.component_min_item g ~mask ~values ~cmp:compare
      ~bits:(fun _ -> 8)
  in
  check Alcotest.(option int) "left min" (Some 10) results.(2);
  check Alcotest.(option int) "right min" (Some 40) results.(3)

let test_gossip_none_values () =
  let g = Gen.path 3 in
  let mask = [| true; true |] in
  let results =
    Dsf_congest.Component_ops.component_min_item g ~mask
      ~values:(fun _ -> None)
      ~cmp:compare
      ~bits:(fun (_ : int) -> 8)
  in
  Array.iter (fun r -> check Alcotest.(option int) "empty" None r) results

let test_component_leaders () =
  let g = Gen.path 6 in
  let mask = [| true; true; false; false; true |] in
  let leaders = Dsf_congest.Component_ops.leaders g ~mask in
  check Alcotest.(array int) "leaders" [| 2; 2; 2; 3; 5; 5 |] leaders

let prop_gossip_matches_central =
  QCheck.Test.make ~name:"gossip extremum = centralized per-component min"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 20 in
      let g = Gen.random_connected r ~n ~extra_edges:15 ~max_w:5 in
      let mask =
        Array.init (Graph.m g) (fun _ -> Dsf_util.Rng.float r 1.0 < 0.5)
      in
      let values v = if v mod 3 = 0 then Some (100 - v) else None in
      let results =
        Dsf_congest.Component_ops.component_min_item g ~mask ~values
          ~cmp:compare
          ~bits:(fun _ -> 8)
      in
      (* Centralized reference. *)
      let uf = Dsf_util.Union_find.create n in
      Array.iter
        (fun (e : Graph.edge) ->
          if mask.(e.id) then ignore (Dsf_util.Union_find.union uf e.u e.v))
        (Graph.edges g);
      let expected v =
        let rep = Dsf_util.Union_find.find uf v in
        let best = ref None in
        for u = 0 to n - 1 do
          if Dsf_util.Union_find.find uf u = rep then begin
            match values u, !best with
            | Some x, Some b when x < b -> best := Some x
            | Some x, None -> best := Some x
            | _ -> ()
          end
        done;
        !best
      in
      Array.for_all Fun.id (Array.init n (fun v -> results.(v) = expected v)))

(* --------------------------------------------------------------- Coloring *)

let tree_of g root = snd (Paths.bfs g ~src:root)

let test_cv_three_colors_path () =
  let g = Gen.path 20 in
  let parent = tree_of g 0 in
  let colors, stats =
    Dsf_congest.Sim.measure (fun env ->
        Dsf_congest.Coloring.three_color ~env g ~parent)
  in
  Array.iteri
    (fun v p ->
      if p >= 0 then
        Alcotest.(check bool) "proper" true (colors.(v) <> colors.(p)))
    parent;
  Array.iter
    (fun c -> Alcotest.(check bool) "in {0,1,2}" true (c >= 0 && c <= 2))
    colors;
  (* O(log* n) + constant rounds — tiny. *)
  Alcotest.(check bool) "few rounds" true (stats.Dsf_congest.Sim.rounds <= 20)

let test_cv_star () =
  (* A star stresses the shift-down: many children of one node. *)
  let g = Gen.star 30 in
  let parent = tree_of g 0 in
  let colors = Dsf_congest.Coloring.three_color g ~parent in
  for v = 1 to 29 do
    Alcotest.(check bool) "leaf differs from hub" true (colors.(v) <> colors.(0))
  done

(* The matching's cost covers both of its runs: the 3-coloring's color
   messages are wider than the 2-bit proposals, so the measured maximum
   edge-round load is the coloring's. *)
let test_matching_cost_covers_coloring () =
  let g = Gen.path 40 in
  let parent = tree_of g 0 in
  let _, col =
    Dsf_congest.Sim.measure (fun env ->
        Dsf_congest.Coloring.three_color ~env g ~parent)
  in
  let _, all =
    Dsf_congest.Sim.measure (fun env ->
        Dsf_congest.Coloring.maximal_matching ~env g ~parent)
  in
  check Alcotest.int "max edge-round bits" 4
    all.Dsf_congest.Sim.max_edge_round_bits;
  check Alcotest.int "= the coloring's"
    col.Dsf_congest.Sim.max_edge_round_bits
    all.Dsf_congest.Sim.max_edge_round_bits

let prop_cv_proper_and_matching_maximal =
  QCheck.Test.make
    ~name:"CV coloring proper in {0,1,2}; matching valid and maximal"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 5 + Dsf_util.Rng.int r 40 in
      let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:5 in
      let parent = tree_of g (Dsf_util.Rng.int r n) in
      let colors = Dsf_congest.Coloring.three_color g ~parent in
      let proper = ref true in
      Array.iteri
        (fun v p ->
          if p >= 0 && colors.(v) = colors.(p) then proper := false;
          if colors.(v) < 0 || colors.(v) > 2 then proper := false)
        parent;
      let matching = Dsf_congest.Coloring.maximal_matching g ~parent in
      let used = Array.make n false in
      let valid = ref true in
      List.iter
        (fun (c, p) ->
          if parent.(c) <> p || used.(c) || used.(p) then valid := false;
          used.(c) <- true;
          used.(p) <- true)
        matching;
      Array.iteri
        (fun v p -> if p >= 0 && (not used.(v)) && not used.(p) then valid := false)
        parent;
      !proper && !valid)

(* ---------------------------------------------------------- Sim corners *)

let test_sim_halt_hook () =
  (* A counting protocol halted externally at a specific state. *)
  let g = Gen.path 2 in
  let proto : (int, unit) Classic.protocol =
    {
      init = (fun _ -> 0);
      step =
        (fun view ~round:_ count ~inbox:_ ->
          ( count + 1,
            Array.to_list view.Dsf_congest.Sim.nbrs
            |> List.map (fun (nb, _, _) -> nb, ()) ));
      is_done = (fun _ -> false);
      msg_bits = (fun () -> 1);
      wake = None;
    }
  in
  let states, stats =
    Classic.run ~halt:(fun sts -> sts.(0) >= 5) g proto
  in
  Alcotest.(check bool) "halted at the hook" true (states.(0) >= 5 && states.(0) <= 6);
  Alcotest.(check bool) "did not hit the limit" true (stats.Dsf_congest.Sim.rounds < 100)

let test_select_token_flood_direct () =
  (* Chain 0 <- 1 <- 2 <- 3 of parents; seed at 3 marks all three edges. *)
  let g = Gen.path 4 in
  let parent = [| -1; 0; 1; 2 |] in
  let seeds = [| false; false; false; true |] in
  let edges = Dsf_core.Select.token_flood g ~parent ~seeds in
  check Alcotest.int "three edges" 3 (List.length (List.sort_uniq compare edges))

let test_select_token_flood_dedup () =
  (* Seeds at 2 and 3: the shared prefix is marked once. *)
  let g = Gen.path 4 in
  let parent = [| -1; 0; 1; 2 |] in
  let seeds = [| false; false; true; true |] in
  let edges = Dsf_core.Select.token_flood g ~parent ~seeds in
  check Alcotest.int "still three edges" 3
    (List.length (List.sort_uniq compare edges))

let test_ledger_pp_smoke () =
  let l = Dsf_congest.Ledger.create () in
  let env = { Dsf_congest.Sim.default_env with ledger = Some l } in
  let _, stats =
    Dsf_congest.Sim.measure ~env (fun env ->
        Dsf_congest.Bfs.build ~env (Gen.path 3) ~root:0)
  in
  Dsf_congest.Sim.charge env "def" 4;
  let s = Format.asprintf "%a" Dsf_congest.Ledger.pp l in
  let sim = stats.Dsf_congest.Sim.rounds in
  Alcotest.(check bool) "mentions totals" true
    (String.length s > 10
    &&
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains (Printf.sprintf "total=%d" (sim + 4))
    && contains (Printf.sprintf "simulated=%d" sim)
    && contains "def")

(* -------------------------------------------------------- error handling *)

let test_disconnected_graph_raises () =
  let g = Graph.make ~n:4 [ 0, 1, 1; 2, 3, 1 ] in
  let inst = Instance.make_ic g [| 0; -1; -1; 0 |] in
  Alcotest.check_raises "moat raises"
    (Invalid_argument "Moat: terminals of a component disconnected") (fun () ->
      ignore (Dsf_core.Moat.run inst))

let test_bfs_disconnected_raises () =
  let g = Graph.make ~n:3 [ 0, 1, 1 ] in
  Alcotest.check_raises "bfs raises"
    (Invalid_argument "Bfs.build: disconnected graph") (fun () ->
      ignore (Dsf_congest.Bfs.build g ~root:0))

let test_single_node_graph () =
  let g = Graph.make ~n:1 [] in
  let inst = Instance.make_ic g [| -1 |] in
  let res = Dsf_core.Moat.run inst in
  check Alcotest.int "empty solution" 0 res.Dsf_core.Moat.weight

let suites =
  [
    ( "baseline.mst_gkp",
      [
        Alcotest.test_case "exact on fixed graphs" `Quick test_gkp_exact_on_fixed_graphs;
        Alcotest.test_case "fragment bound" `Quick test_gkp_fragment_bound;
        Alcotest.test_case "beats pipelined at scale" `Quick test_gkp_beats_pipelined_at_scale;
        qtest prop_gkp_equals_kruskal;
      ] );
    ( "congest.leader",
      [
        Alcotest.test_case "elects max id" `Quick test_leader_elects_max_id;
        Alcotest.test_case "rounds ~ D" `Quick test_leader_rounds_near_diameter;
        qtest prop_leader_on_random_graphs;
      ] );
    ( "congest.component_ops",
      [
        Alcotest.test_case "per-component gossip" `Quick test_gossip_per_component;
        Alcotest.test_case "no values" `Quick test_gossip_none_values;
        Alcotest.test_case "leaders" `Quick test_component_leaders;
        qtest prop_gossip_matches_central;
      ] );
    ( "congest.coloring",
      [
        Alcotest.test_case "path 3-colored" `Quick test_cv_three_colors_path;
        Alcotest.test_case "star shift-down" `Quick test_cv_star;
        Alcotest.test_case "matching cost covers the coloring" `Quick
          test_matching_cost_covers_coloring;
        qtest prop_cv_proper_and_matching_maximal;
      ] );
    ( "congest.sim_corners",
      [
        Alcotest.test_case "halt hook" `Quick test_sim_halt_hook;
        Alcotest.test_case "token flood chain" `Quick test_select_token_flood_direct;
        Alcotest.test_case "token flood dedup" `Quick test_select_token_flood_dedup;
        Alcotest.test_case "ledger pp" `Quick test_ledger_pp_smoke;
      ] );
    ( "robustness",
      [
        Alcotest.test_case "disconnected terminals raise" `Quick test_disconnected_graph_raises;
        Alcotest.test_case "disconnected BFS raises" `Quick test_bfs_disconnected_raises;
        Alcotest.test_case "single node" `Quick test_single_node_graph;
      ] );
  ]
