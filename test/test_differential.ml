(* Differential and at-scale testing: all algorithms on shared instances
   with the full consistency matrix, the Certify re-checker, and larger
   networks than the unit suites use. *)

open Dsf_graph
open Dsf_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* ---------------------------------------------------------------- Certify *)

let sample seed =
  let r = rng seed in
  let g = Gen.random_connected r ~n:20 ~extra_edges:16 ~max_w:8 in
  let labels = Gen.random_labels r ~n:20 ~t:6 ~k:2 in
  Instance.make_ic g labels

let test_certify_accepts_det () =
  let inst = sample 1 in
  let det = Det_dsf.run inst in
  match
    Certify.check ~dual:(Frac.to_float det.Det_dsf.dual) inst
      ~solution:det.Det_dsf.solution
  with
  | Ok r ->
      Alcotest.(check bool) "feasible" true r.Certify.feasible;
      Alcotest.(check bool) "forest" true r.Certify.forest;
      Alcotest.(check bool) "minimal" true r.Certify.minimal;
      (match r.Certify.certified_ratio with
      | Some c -> Alcotest.(check bool) "proven < 2" true (c < 2.0)
      | None -> Alcotest.fail "expected certified ratio")
  | Error e -> Alcotest.fail e

let test_certify_rejects_infeasible () =
  let inst = sample 2 in
  let empty = Array.make (Graph.m inst.Instance.graph) false in
  match Certify.check inst ~solution:empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty solution must be rejected"

let test_certify_rejects_bogus_dual () =
  let inst = sample 3 in
  let det = Det_dsf.run inst in
  match
    Certify.check
      ~dual:(float_of_int (10 * det.Det_dsf.weight))
      inst ~solution:det.Det_dsf.solution
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dual above weight must be rejected"

let test_certify_reports_nonminimal () =
  let g = Gen.path 5 in
  let inst = Instance.make_ic g [| 0; -1; 0; -1; -1 |] in
  let all = Array.make (Graph.m g) true in
  match Certify.check inst ~solution:all with
  | Ok r -> Alcotest.(check bool) "not minimal" false r.Certify.minimal
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------ differential *)

let prop_consistency_matrix =
  QCheck.Test.make
    ~name:"differential: all algorithms consistent on shared instances"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 24 in
      let g = Gen.random_connected r ~n ~extra_edges:20 ~max_w:8 in
      let labels = Gen.random_labels r ~n ~t:8 ~k:3 in
      let inst = Instance.make_ic g labels in
      let det = Det_dsf.run inst in
      let sub = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
      let rnd = Rand_dsf.run ~repetitions:1 ~rng:(rng (seed + 7)) inst in
      let cen = Moat.run inst in
      let dual = Frac.to_float cen.Moat.dual in
      let opt = Exact.steiner_forest_weight inst in
      let fopt = float_of_int opt in
      (* Every output feasible. *)
      Instance.is_feasible inst det.Det_dsf.solution
      && Instance.is_feasible inst sub.Det_sublinear.solution
      && Instance.is_feasible inst rnd.Rand_dsf.solution
      (* The shared dual lower-bounds OPT, and every weight is >= OPT. *)
      && dual <= fopt +. 1e-6
      && det.Det_dsf.weight >= opt
      && sub.Det_sublinear.weight >= opt
      && rnd.Rand_dsf.weight >= opt
      (* Guarantee ordering: det within 2x, sub within 2.5x. *)
      && det.Det_dsf.weight <= 2 * opt
      && float_of_int sub.Det_sublinear.weight <= (2.5 *. fopt) +. 1e-9
      (* det and centralized follow the same schedule. *)
      && Frac.equal det.Det_dsf.dual cen.Moat.dual)

(* ---------------------------------------------------------------- at scale *)

let test_scale_det () =
  let r = rng 42 in
  let n = 200 in
  let g = Gen.random_connected r ~n ~extra_edges:250 ~max_w:20 in
  let labels = Gen.spread_labels r g ~t:24 ~k:6 in
  let inst = Instance.make_ic g labels in
  let tel = Dsf_congest.Telemetry.create () in
  let det = Det_dsf.run ~telemetry:tel inst in
  Alcotest.(check bool) "feasible" true (Instance.is_feasible inst det.Det_dsf.solution);
  Alcotest.(check bool) "within 2x dual" true
    (float_of_int det.Det_dsf.weight < 2. *. Frac.to_float det.Det_dsf.dual +. 1e-6);
  let budget = Dsf_util.Bitsize.congest_budget ~n in
  (* The widest edge-round of any run: the telemetry sees every run. *)
  let rec merb (s : Dsf_congest.Telemetry.span) =
    List.fold_left
      (fun m c -> max m (merb c))
      s.Dsf_congest.Telemetry.max_edge_round_bits s.Dsf_congest.Telemetry.children
  in
  let merb = merb (Dsf_congest.Telemetry.root tel) in
  Alcotest.(check bool) "congestion discipline at scale" true
    (merb > 0 && merb <= budget)

let test_scale_rand () =
  let r = rng 43 in
  let n = 200 in
  let g = Gen.random_geometric r ~n ~radius:0.14 ~max_w:50 in
  let labels = Gen.spread_labels r g ~t:20 ~k:5 in
  let inst = Instance.make_ic g labels in
  let res = Rand_dsf.run ~repetitions:1 ~rng:(rng 44) inst in
  Alcotest.(check bool) "feasible" true
    (Instance.is_feasible inst res.Rand_dsf.solution);
  (* The deterministic run's dual certifies the randomized ratio too. *)
  let det = Det_dsf.run inst in
  let dual = Frac.to_float det.Det_dsf.dual in
  Alcotest.(check bool) "rand within O(log n) of the dual" true
    (float_of_int res.Rand_dsf.weight
    <= 2. *. log (float_of_int n) *. dual)

let test_scale_sublinear_broom () =
  (* The adversarial family at scale exercises many growth phases. *)
  let g, labels = Gen.broom ~tail:60 ~arm_lengths:[ 1; 2; 3; 4; 5; 6 ] in
  let inst = Instance.make_ic g labels in
  let sub = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
  let opt = List.fold_left ( + ) 0 (List.map (fun l -> 2 * l) [ 1; 2; 3; 4; 5; 6 ]) in
  Alcotest.(check bool) "feasible" true
    (Instance.is_feasible inst sub.Det_sublinear.solution);
  Alcotest.(check bool) "within 2.5 OPT" true
    (float_of_int sub.Det_sublinear.weight <= 2.5 *. float_of_int opt)

let suites =
  [
    ( "core.certify",
      [
        Alcotest.test_case "accepts det output" `Quick test_certify_accepts_det;
        Alcotest.test_case "rejects infeasible" `Quick test_certify_rejects_infeasible;
        Alcotest.test_case "rejects bogus dual" `Quick test_certify_rejects_bogus_dual;
        Alcotest.test_case "reports non-minimal" `Quick test_certify_reports_nonminimal;
      ] );
    ("differential", [ qtest prop_consistency_matrix ]);
    ( "scale",
      [
        Alcotest.test_case "det @ n=200" `Slow test_scale_det;
        Alcotest.test_case "rand @ n=200" `Slow test_scale_rand;
        Alcotest.test_case "sublinear broom" `Slow test_scale_sublinear_broom;
      ] );
  ]
