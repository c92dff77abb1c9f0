(* Direct tests for the Section 5 level-routing protocols and radius
   invariants of the moat algorithms. *)

open Dsf_graph
open Dsf_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let vt_of seed g = Dsf_embed.Virtual_tree.build (rng seed) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g

(* ----------------------------------------------------------- route_phase *)

let test_route_delivers_to_target () =
  let g = Gen.path 6 in
  let vt = vt_of 1 g in
  (* Send label 7 from node 0 toward node 5's... route to an arbitrary LE
     target: use node 0's top ancestor (reachable by construction). *)
  let target = vt.Dsf_embed.Virtual_tree.ancestors.(0).(vt.Dsf_embed.Virtual_tree.levels) in
  let origins v = if v = 0 then [ 7, target ] else [] in
  let states = Level_routing.route_phase g vt ~origins in
  check Alcotest.(list int) "label arrived" [ 7 ]
    states.(target).Level_routing.lhat

let test_route_filters_duplicates () =
  (* Many holders of the same (label, target): each node forwards the pair
     at most once, so the target hears it but the edge work is bounded. *)
  let g = Gen.star 8 in
  let vt = vt_of 2 g in
  let target = vt.Dsf_embed.Virtual_tree.ancestors.(1).(vt.Dsf_embed.Virtual_tree.levels) in
  let origins v = if v >= 1 then [ 3, target ] else [] in
  let states, stats =
    Dsf_congest.Sim.measure (fun env ->
        Level_routing.route_phase ~env g vt ~origins)
  in
  check Alcotest.(list int) "delivered once" [ 3 ]
    states.(target).Level_routing.lhat;
  (* At most one message per (pair, node): star has 7 leaves + hub. *)
  Alcotest.(check bool) "filtered traffic" true (stats.Dsf_congest.Sim.messages <= 8)

let test_route_marks_shortest_path_edges () =
  let g = Gen.path 5 in
  let vt = vt_of 3 g in
  let target = vt.Dsf_embed.Virtual_tree.ancestors.(0).(vt.Dsf_embed.Virtual_tree.levels) in
  let origins v = if v = 0 then [ 1, target ] else [] in
  let states = Level_routing.route_phase g vt ~origins in
  let marked =
    Array.to_list states
    |> List.concat_map (fun st -> st.Level_routing.marked)
    |> List.sort_uniq compare
  in
  (* On a path the route 0 -> target uses exactly the edges between them. *)
  check Alcotest.int "edge count = distance" target (List.length marked)

let test_route_self_target_free () =
  let g = Gen.path 4 in
  let vt = vt_of 4 g in
  let origins v = if v = 2 then [ 9, 2 ] else [] in
  let states, stats =
    Dsf_congest.Sim.measure (fun env ->
        Level_routing.route_phase ~env g vt ~origins)
  in
  check Alcotest.(list int) "self-delivery" [ 9 ] states.(2).Level_routing.lhat;
  check Alcotest.int "no messages" 0 stats.Dsf_congest.Sim.messages

(* -------------------------------------------------------- backtrace_phase *)

let test_backtrace_returns_to_origin () =
  let g = Gen.path 6 in
  let vt = vt_of 5 g in
  let target = vt.Dsf_embed.Virtual_tree.ancestors.(0).(vt.Dsf_embed.Virtual_tree.levels) in
  let origins v = if v = 0 then [ 4, target ] else [] in
  let rstates = Level_routing.route_phase g vt ~origins in
  (* The target ships payload labels 10 and 11 back down the chain. *)
  let bundles v =
    if v = target && rstates.(v).Level_routing.lhat <> [] then
      [
        { Level_routing.route = (4, target); payload = 10 };
        { Level_routing.route = (4, target); payload = 11 };
      ]
    else []
  in
  let tables v = rstates.(v).Level_routing.known in
  let bstates = Level_routing.backtrace_phase g ~tables ~bundles in
  check
    Alcotest.(list int)
    "origin got the payloads" [ 10; 11 ]
    (List.sort compare bstates.(0).Level_routing.b_l)

(* --------------------------------------------------- moat radius invariants *)

let prop_moat_radii_bounded =
  QCheck.Test.make
    ~name:"moat radii stay within WD/2 (Lemma F.1's argument)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:18 ~extra_edges:14 ~max_w:9 in
      let labels = Gen.random_labels r ~n:18 ~t:6 ~k:2 in
      let inst = Instance.make_ic g labels in
      let res = Moat.run inst in
      let wd = Paths.diameter_weighted g in
      List.for_all
        (fun (_, rad) ->
          Frac.sign rad >= 0
          && Frac.compare (Frac.double rad) (Frac.of_int wd) <= 0)
        res.Moat.final_rad)

let prop_moat_dual_scaling =
  QCheck.Test.make
    ~name:"moat dual doubles exactly when all weights double" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:15 ~extra_edges:12 ~max_w:7 in
      let labels = Gen.random_labels r ~n:15 ~t:6 ~k:2 in
      let inst = Instance.make_ic g labels in
      let doubled =
        Instance.make_ic
          (Graph.make ~n:15
             (Array.to_list (Graph.edges g)
             |> List.map (fun (e : Graph.edge) -> e.u, e.v, 2 * e.w)))
          labels
      in
      let a = Moat.run inst and b = Moat.run doubled in
      Frac.equal (Frac.double a.Moat.dual) b.Moat.dual)

let suites =
  [
    ( "core.level_routing",
      [
        Alcotest.test_case "delivers to target" `Quick test_route_delivers_to_target;
        Alcotest.test_case "filters duplicates" `Quick test_route_filters_duplicates;
        Alcotest.test_case "marks shortest path" `Quick test_route_marks_shortest_path_edges;
        Alcotest.test_case "self target is free" `Quick test_route_self_target_free;
        Alcotest.test_case "backtrace to origin" `Quick test_backtrace_returns_to_origin;
      ] );
    ( "core.moat_invariants",
      [ qtest prop_moat_radii_bounded; qtest prop_moat_dual_scaling ] );
  ]
