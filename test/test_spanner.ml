open Dsf_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* A metric from a random graph's shortest-path closure. *)
let random_metric seed n =
  let g = Gen.random_connected (rng seed) ~n ~extra_edges:(2 * n) ~max_w:20 in
  let apsp = Paths.all_pairs g in
  fun i j -> apsp.(i).(j)

let test_spanner_stretch_1_is_complete () =
  let dist = random_metric 1 8 in
  let sp = Spanner.greedy ~dist ~points:8 ~stretch:1 in
  (* Stretch 1 must keep an edge for every pair not exactly realized. *)
  check (Alcotest.float 1e-9) "stretch exactly 1" 1.0
    (Spanner.max_stretch sp ~dist)

let test_spanner_stretch_respected () =
  List.iter
    (fun stretch ->
      let dist = random_metric 2 15 in
      let sp = Spanner.greedy ~dist ~points:15 ~stretch in
      Alcotest.(check bool)
        (Printf.sprintf "stretch <= %d" stretch)
        true
        (Spanner.max_stretch sp ~dist <= float_of_int stretch +. 1e-9))
    [ 1; 3; 5 ]

let test_spanner_sparser_with_stretch () =
  let dist = random_metric 3 20 in
  let tight = Spanner.greedy ~dist ~points:20 ~stretch:1 in
  let loose = Spanner.greedy ~dist ~points:20 ~stretch:5 in
  Alcotest.(check bool) "looser stretch, fewer edges" true
    (Spanner.edge_count loose <= Spanner.edge_count tight);
  (* A 5-spanner of 20 points should be well below the complete graph. *)
  Alcotest.(check bool) "sparse" true (Spanner.edge_count loose < 190)

let test_spanner_connected () =
  let dist = random_metric 4 12 in
  let sp = Spanner.greedy ~dist ~points:12 ~stretch:3 in
  for i = 0 to 11 do
    for j = i + 1 to 11 do
      Alcotest.(check bool) "finite distance" true
        (Spanner.spanner_distance sp i j < max_int)
    done
  done

let test_spanner_single_point () =
  let sp = Spanner.greedy ~dist:(fun _ _ -> 1) ~points:1 ~stretch:3 in
  check Alcotest.int "no edges" 0 (Spanner.edge_count sp);
  check Alcotest.int "self distance" 0 (Spanner.spanner_distance sp 0 0)

let prop_spanner_stretch =
  QCheck.Test.make ~name:"greedy spanner respects its stretch" ~count:20
    QCheck.(pair (int_range 0 100_000) (int_range 1 4))
    (fun (seed, r) ->
      let stretch = (2 * r) - 1 in
      let points = 12 in
      let dist = random_metric seed points in
      let sp = Spanner.greedy ~dist ~points ~stretch in
      Spanner.max_stretch sp ~dist <= float_of_int stretch +. 1e-9)

let prop_reduced_solver_spanner_vs_direct =
  QCheck.Test.make
    ~name:"reduced solver: spanner route feasible, within stretch of direct"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 26 in
      let g = Gen.random_connected r ~n ~extra_edges:20 ~max_w:8 in
      let labels = Gen.random_labels r ~n ~t:8 ~k:2 in
      let inst = Instance.make_ic g labels in
      (* A partial first-stage forest and an S set, as Rand_dsf produces. *)
      let f = Array.make (Graph.m g) false in
      Array.iter
        (fun (e : Graph.edge) ->
          if Dsf_util.Rng.float r 1.0 < 0.45 then f.(e.id) <- true)
        (Graph.edges g);
      let s_set = Dsf_util.Rng.sample_without_replacement r 5 n |> Array.to_list in
      let tree =
        Dsf_congest.Bfs.build g ~root:(Dsf_congest.Bfs.max_id_root g)
      in
      let via_spanner =
        Dsf_core.Reduced_solver.solve ~spanner_stretch:(Some 3) inst ~tree ~f ~s_set
      in
      let direct =
        Dsf_core.Reduced_solver.solve ~spanner_stretch:None inst ~tree ~f ~s_set
      in
      let weight_of o =
        Graph.edge_set_weight g o.Dsf_core.Reduced_solver.extra_edges
      in
      let union o =
        Array.mapi
          (fun i b -> b || o.Dsf_core.Reduced_solver.extra_edges.(i))
          f
      in
      let both_feasible_or_unassigned o =
        o.Dsf_core.Reduced_solver.unassigned_terminals > 0
        || Instance.is_feasible inst (union o)
      in
      both_feasible_or_unassigned via_spanner
      && both_feasible_or_unassigned direct
      (* Moat is a 2-approx on either graph, so the spanner route costs at
         most stretch * 2 more than the direct route's lower bound; use a
         generous factor. *)
      && weight_of via_spanner <= (6 * weight_of direct) + 1)

let suites =
  [
    ( "graph.spanner",
      [
        Alcotest.test_case "stretch 1 complete" `Quick test_spanner_stretch_1_is_complete;
        Alcotest.test_case "stretch respected" `Quick test_spanner_stretch_respected;
        Alcotest.test_case "sparser with stretch" `Quick test_spanner_sparser_with_stretch;
        Alcotest.test_case "connected" `Quick test_spanner_connected;
        Alcotest.test_case "single point" `Quick test_spanner_single_point;
        qtest prop_spanner_stretch;
        qtest prop_reduced_solver_spanner_vs_direct;
      ] );
  ]
