(* Tests for the Appendix F.3 fast pruning routine. *)

open Dsf_graph
open Dsf_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let test_pruning_path () =
  (* Terminals 0, 2 on a 5-path with the full path as F: edges 2-3, 3-4 go. *)
  let g = Gen.path 5 in
  let inst = Instance.make_ic g [| 0; -1; 0; -1; -1 |] in
  let f = Array.make (Graph.m g) true in
  let res = Pruning.run inst ~f ~sigma:2 in
  check Alcotest.int "weight" 2 (Instance.solution_weight inst res.Pruning.pruned);
  Alcotest.(check bool) "feasible" true (Instance.is_feasible inst res.Pruning.pruned)

let test_pruning_keeps_shared_bridge () =
  (* Two labels both crossing one bridge edge: the coupling rule must keep
     it exactly once. *)
  let g =
    Graph.make ~n:6
      [ 0, 2, 1; 1, 2, 1; 2, 3, 5; 3, 4, 1; 3, 5, 1 ]
  in
  let inst = Instance.make_ic g [| 0; 1; -1; -1; 0; 1 |] in
  let f = Array.make (Graph.m g) true in
  let res = Pruning.run inst ~f ~sigma:2 in
  check Alcotest.int "everything needed" 9
    (Instance.solution_weight inst res.Pruning.pruned)

let test_pruning_drops_whole_subtree () =
  (* A dangling subtree with no terminals disappears entirely. *)
  let g = Gen.star 6 in
  let inst = Instance.make_ic g [| -1; 0; 0; -1; -1; -1 |] in
  let f = Array.make (Graph.m g) true in
  let res = Pruning.run inst ~f ~sigma:2 in
  check Alcotest.int "two spokes" 2
    (Instance.solution_weight inst res.Pruning.pruned)

let test_pruning_rejects_bad_input () =
  let g = Gen.cycle 4 in
  let inst = Instance.make_ic g [| 0; -1; 0; -1 |] in
  let all = Array.make (Graph.m g) true in
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Pruning.run: not a forest") (fun () ->
      ignore (Pruning.run inst ~f:all ~sigma:2));
  let none = Array.make (Graph.m g) false in
  Alcotest.check_raises "infeasible rejected"
    (Invalid_argument "Pruning.run: infeasible") (fun () ->
      ignore (Pruning.run inst ~f:none ~sigma:2))

let test_pruning_cluster_stats () =
  let r = rng 3 in
  let g = Gen.random_connected r ~n:40 ~extra_edges:30 ~max_w:6 in
  let labels = Gen.random_labels r ~n:40 ~t:10 ~k:3 in
  let inst = Instance.make_ic g labels in
  let f = Mst.kruskal g in
  let ledger = Dsf_congest.Ledger.create () in
  let tel = Dsf_congest.Telemetry.create () in
  let env =
    { Dsf_congest.Sim.default_env with
      telemetry = Some tel; ledger = Some ledger }
  in
  let res = Pruning.run ~env inst ~f ~sigma:5 in
  Alcotest.(check bool) "some clusters" true (res.Pruning.clusters >= 1);
  Alcotest.(check bool) "clusters bounded by nodes" true (res.Pruning.clusters <= 40);
  Alcotest.(check bool) "fc edges < n" true (res.Pruning.cluster_edges < 40);
  Alcotest.(check bool) "ledger has simulated rounds" true
    (Dsf_congest.Ledger.simulated ledger > 0);
  check Alcotest.int "simulated = engine rounds"
    (Dsf_util.Metrics.counter_value (Dsf_congest.Telemetry.metrics tel)
       "sim/rounds")
    (Dsf_congest.Ledger.simulated ledger)

let prop_pruning_equals_reference =
  QCheck.Test.make
    ~name:"F.3 pruning = centralized minimal subforest (Cor F.10)" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 2 10))
    (fun (seed, sigma) ->
      let r = rng seed in
      let n = 25 in
      let g = Gen.random_connected r ~n ~extra_edges:20 ~max_w:8 in
      let labels = Gen.random_labels r ~n ~t:8 ~k:3 in
      let inst = Instance.make_ic g labels in
      let f = Mst.kruskal g in
      let res = Pruning.run inst ~f ~sigma in
      res.Pruning.pruned = Instance.prune inst f)

let prop_pruning_on_partial_forests =
  QCheck.Test.make
    ~name:"F.3 pruning works on non-spanning feasible forests" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 20 in
      let g = Gen.random_connected r ~n ~extra_edges:15 ~max_w:8 in
      let labels = Gen.random_labels r ~n ~t:6 ~k:2 in
      let inst = Instance.make_ic g labels in
      (* A feasible non-spanning forest: the deterministic solution plus
         its leftovers before pruning is emulated by pruning the solution
         itself (a fixpoint). *)
      let det = Det_dsf.run inst in
      let res = Pruning.run inst ~f:det.Det_dsf.solution ~sigma:4 in
      res.Pruning.pruned = det.Det_dsf.solution)

let suites =
  [
    ( "core.pruning",
      [
        Alcotest.test_case "path" `Quick test_pruning_path;
        Alcotest.test_case "shared bridge" `Quick test_pruning_keeps_shared_bridge;
        Alcotest.test_case "drops subtree" `Quick test_pruning_drops_whole_subtree;
        Alcotest.test_case "rejects bad input" `Quick test_pruning_rejects_bad_input;
        Alcotest.test_case "cluster stats" `Quick test_pruning_cluster_stats;
        qtest prop_pruning_equals_reference;
        qtest prop_pruning_on_partial_forests;
      ] );
  ]

(* Direct tests for the Lemma F.6 mark/unmark protocol. *)

let test_f6_path_chain () =
  (* Rooted path 4 <- 3 <- 2 <- 1 <- 0 (root 0); holders of class 9 at
     nodes 1 and 3: kept edges = the 1-2, 2-3 chain; the root prefix 0-1
     and the tail 3-4 are peeled. *)
  let g = Gen.path 5 in
  let parent = [| -1; 0; 1; 2; 3 |] in
  let labels v = if v = 1 || v = 3 then [ 9 ] else [] in
  let kept, _ = F6_protocol.run g ~parent ~labels in
  let expect = Array.init 4 (fun eid -> eid = 1 || eid = 2) in
  check Alcotest.(array bool) "middle chain kept" expect kept

let test_f6_single_holder_nothing () =
  let g = Gen.path 4 in
  let parent = [| -1; 0; 1; 2 |] in
  let labels v = if v = 2 then [ 5 ] else [] in
  let kept, _ = F6_protocol.run g ~parent ~labels in
  Alcotest.(check bool) "no edges kept" true (Array.for_all not kept)

let test_f6_junction () =
  (* Star rooted at the hub: holders at two leaves of one class keep both
     spokes; a third leaf with its own class keeps nothing. *)
  let g = Gen.star 5 in
  let parent = [| -1; 0; 0; 0; 0 |] in
  let labels v = if v = 1 || v = 2 then [ 7 ] else if v = 3 then [ 8 ] else [] in
  let kept, _ = F6_protocol.run g ~parent ~labels in
  let spoke leaf = match Graph.find_edge g 0 leaf with Some e -> e | None -> -1 in
  Alcotest.(check bool) "spoke 1 kept" true kept.(spoke 1);
  Alcotest.(check bool) "spoke 2 kept" true kept.(spoke 2);
  Alcotest.(check bool) "spoke 3 dropped" false kept.(spoke 3);
  Alcotest.(check bool) "spoke 4 dropped" false kept.(spoke 4)

let test_f6_root_holder () =
  (* Holder at the root plus one at a leaf: the whole chain between them
     is kept (the root witness stops the peel). *)
  let g = Gen.path 4 in
  let parent = [| -1; 0; 1; 2 |] in
  let labels v = if v = 0 || v = 3 then [ 2 ] else [] in
  let kept, _ = F6_protocol.run g ~parent ~labels in
  Alcotest.(check bool) "all kept" true (Array.for_all Fun.id kept)

let f6_suites =
  [
    ( "core.f6_protocol",
      [
        Alcotest.test_case "chain peeling" `Quick test_f6_path_chain;
        Alcotest.test_case "single holder" `Quick test_f6_single_holder_nothing;
        Alcotest.test_case "junction" `Quick test_f6_junction;
        Alcotest.test_case "root holder" `Quick test_f6_root_holder;
      ] );
  ]

let suites = suites @ f6_suites
