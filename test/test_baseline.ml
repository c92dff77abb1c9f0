open Dsf_graph
open Dsf_baseline
module Khan_etal = Dsf_core.Khan_etal

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let random_instance ?(n = 30) ?(extra = 25) ?(max_w = 10) ?(t = 9) ?(k = 3) seed =
  let r = rng seed in
  let g = Gen.random_connected r ~n ~extra_edges:extra ~max_w in
  let labels = Gen.random_labels r ~n ~t ~k in
  Instance.make_ic g labels

(* -------------------------------------------------------------- Khan_etal *)

let test_khan_pair_path () =
  let g = Gen.path 6 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; -1; 0 |] in
  let res = Khan_etal.run ~rng:(rng 1) inst in
  check Alcotest.int "exact on path" 5 res.Khan_etal.weight

let test_khan_rounds_grow_with_k () =
  (* The selection stage pays ~O(s) per component. *)
  let n = 80 in
  let r = rng 2 in
  let g = Gen.cycle n |> Gen.reweight r ~max_w:4 in
  let mk k =
    let labels = Gen.random_labels (rng (k + 10)) ~n ~t:(3 * k) ~k in
    let inst = Instance.make_ic g labels in
    let res = Khan_etal.run ~repetitions:1 ~rng:(rng (k + 20)) inst in
    Dsf_congest.Ledger.total res.Khan_etal.ledger
  in
  let r2 = mk 2 and r8 = mk 8 in
  Alcotest.(check bool) "k=8 costs much more than k=2" true (r8 > 2 * r2)

let prop_khan_feasible =
  QCheck.Test.make ~name:"khan baseline: feasible, bounded ratio" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let res = Khan_etal.run ~rng:(rng (seed + 1)) inst in
      let opt = Exact.steiner_forest_weight inst in
      Instance.is_feasible inst res.Khan_etal.solution
      && float_of_int res.Khan_etal.weight
         <= 3.0 *. log (float_of_int 30) *. float_of_int opt)

(* -------------------------------------------------------- Mst_distributed *)

let test_mst_distributed_exact () =
  let g = Gen.random_connected (rng 3) ~n:40 ~extra_edges:50 ~max_w:25 in
  let res = Mst_distributed.run g in
  check Alcotest.int "weight = Kruskal" (Mst.weight g) res.Mst_distributed.weight;
  Alcotest.(check bool) "spanning tree" true
    (Mst.is_spanning_tree g res.Mst_distributed.solution)

let test_mst_distributed_rounds () =
  (* Pipelining: rounds ~ D + n, not D * n. *)
  let g = Gen.random_connected (rng 4) ~n:60 ~extra_edges:80 ~max_w:25 in
  let res = Mst_distributed.run g in
  Alcotest.(check bool) "round bound" true (res.Mst_distributed.rounds <= 4 * 60)

let prop_mst_distributed =
  QCheck.Test.make ~name:"distributed MST = Kruskal" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:25 ~extra_edges:30 ~max_w:15 in
      (Mst_distributed.run g).Mst_distributed.weight = Mst.weight g)

(* ------------------------------------------------------------ Steiner_tree *)

let test_steiner_tree_trivial () =
  let g = Gen.path 4 in
  let res = Steiner_tree.run g ~terminals:[ 2 ] in
  check Alcotest.int "single terminal" 0 res.Steiner_tree.weight;
  let res2 = Steiner_tree.run g ~terminals:[ 0; 3 ] in
  check Alcotest.int "pair" 3 res2.Steiner_tree.weight

let prop_steiner_tree_two_approx =
  QCheck.Test.make ~name:"KMB baseline: feasible and <= 2*OPT" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:20 ~extra_edges:18 ~max_w:9 in
      let terms =
        Dsf_util.Rng.sample_without_replacement r 5 20 |> Array.to_list
      in
      let res = Steiner_tree.run g ~terminals:terms in
      let opt = Exact.steiner_tree_weight g terms in
      let labels = Array.make 20 (-1) in
      List.iter (fun v -> labels.(v) <- 0) terms;
      Instance.is_feasible (Instance.make_ic g labels) res.Steiner_tree.solution
      && res.Steiner_tree.weight <= 2 * opt)

(* ------------------------------------------------- Steiner_tree_distributed *)

let test_st_distributed_pair () =
  let g = Gen.path 6 in
  let res = Steiner_tree_distributed.run g ~terminals:[ 0; 5 ] in
  check Alcotest.int "path weight" 5 res.Steiner_tree_distributed.weight

let test_st_distributed_ledger_simulated () =
  let g = Gen.random_connected (rng 6) ~n:30 ~extra_edges:25 ~max_w:8 in
  let terms = Dsf_util.Rng.sample_without_replacement (rng 7) 6 30 |> Array.to_list in
  let res = Steiner_tree_distributed.run g ~terminals:terms in
  let ledger = res.Steiner_tree_distributed.ledger in
  Alcotest.(check bool) "substantial simulated rounds" true
    (Dsf_congest.Ledger.simulated ledger > 10);
  (* The one charge is the F.3 pruning's matchings; everything else is
     counted by the engine. *)
  check Alcotest.int "one charge" 1
    (List.length (Dsf_congest.Ledger.charges ledger))

let prop_st_distributed_two_approx =
  QCheck.Test.make
    ~name:"distributed CF/Mehlhorn: feasible and <= 2*OPT" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 20 in
      let g = Gen.random_connected r ~n ~extra_edges:18 ~max_w:9 in
      let terms = Dsf_util.Rng.sample_without_replacement r 5 n |> Array.to_list in
      let res = Steiner_tree_distributed.run g ~terminals:terms in
      let opt = Exact.steiner_tree_weight g terms in
      let labels = Array.make n (-1) in
      List.iter (fun v -> labels.(v) <- 0) terms;
      Instance.is_feasible (Instance.make_ic g labels)
        res.Steiner_tree_distributed.solution
      && res.Steiner_tree_distributed.weight <= 2 * opt)

let prop_st_distributed_close_to_kmb =
  QCheck.Test.make
    ~name:"distributed CF/Mehlhorn within 2x of centralized KMB" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 18 in
      let g = Gen.random_connected r ~n ~extra_edges:15 ~max_w:9 in
      let terms = Dsf_util.Rng.sample_without_replacement r 4 n |> Array.to_list in
      let d = Steiner_tree_distributed.run g ~terminals:terms in
      let c = Steiner_tree.run g ~terminals:terms in
      d.Steiner_tree_distributed.weight <= 2 * c.Steiner_tree.weight)

let suites =
  [
    ( "baseline.khan_etal",
      [
        Alcotest.test_case "pair on path" `Quick test_khan_pair_path;
        Alcotest.test_case "rounds grow with k" `Quick test_khan_rounds_grow_with_k;
        qtest prop_khan_feasible;
      ] );
    ( "baseline.mst_distributed",
      [
        Alcotest.test_case "exact MST" `Quick test_mst_distributed_exact;
        Alcotest.test_case "pipelined rounds" `Quick test_mst_distributed_rounds;
        qtest prop_mst_distributed;
      ] );
    ( "baseline.steiner_tree",
      [
        Alcotest.test_case "degenerate" `Quick test_steiner_tree_trivial;
        qtest prop_steiner_tree_two_approx;
      ] );
    ( "baseline.steiner_tree_distributed",
      [
        Alcotest.test_case "pair on path" `Quick test_st_distributed_pair;
        Alcotest.test_case "ledger mostly simulated" `Quick test_st_distributed_ledger_simulated;
        qtest prop_st_distributed_two_approx;
        qtest prop_st_distributed_close_to_kmb;
      ] );
  ]
