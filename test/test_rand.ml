(* Tests for the randomized algorithm (Section 5), the sublinear
   deterministic algorithm (Section 4.2), and the F-reduced solver. *)

open Dsf_graph
open Dsf_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let random_instance ?(n = 24) ?(extra = 18) ?(max_w = 8) ?(t = 8) ?(k = 3) seed =
  let r = rng seed in
  let g = Gen.random_connected r ~n ~extra_edges:extra ~max_w in
  let labels = Gen.random_labels r ~n ~t ~k in
  Instance.make_ic g labels

(* ---------------------------------------------------------------- Rand_dsf *)

(* The solvers read only what they simulated.  Det_sublinear's sigma is
   isqrt(min(s' t, n)) for the footnote-2 estimate s' (the stabilization
   round of Bellman-Ford from the max-id root), and Rand_dsf's virtual
   tree has at most ceil(log2 WD) + 1 levels: its WD bound is twice the
   root's eccentricity, read off the regime test's Bellman-Ford run. *)
let test_parameters_from_simulation () =
  List.iter
    (fun seed ->
      let inst = random_instance ~n:30 seed in
      let g = inst.Instance.graph in
      let n = Graph.n g in
      let est = Dsf_congest.Params.estimate ~cap:(n + 1) g in
      let s' = Option.get est.Dsf_congest.Params.s in
      let t = Instance.terminal_count (Instance.minimalize inst) in
      let res = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
      check Alcotest.int
        (Printf.sprintf "seed %d: sigma from the estimate %d" seed s')
        (Dsf_util.Intmath.isqrt (Int.min (s' * t) n))
        res.Det_sublinear.sigma)
    [ 31; 32; 33 ];
  (* Dense graphs: s stays below sqrt n, so the regime test's run
     stabilizes. *)
  List.iter
    (fun seed ->
      let inst = random_instance ~n:30 ~extra:150 seed in
      let g = inst.Instance.graph in
      let res = Rand_dsf.run ~rng:(rng seed) inst in
      let wd = Paths.diameter_weighted g in
      let name = Printf.sprintf "seed %d" seed in
      check Alcotest.bool (name ^ ": small-s regime") false
        res.Rand_dsf.truncated;
      check Alcotest.bool
        (Printf.sprintf "%s: %d levels <= ceil(log2 %d) + 1" name
           (res.Rand_dsf.phases - 1) wd)
        true
        (res.Rand_dsf.phases - 1 <= Dsf_util.Intmath.ceil_log2 wd + 1))
    [ 31; 32; 33 ]

let test_rand_pair_path () =
  let g = Gen.path 6 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; -1; 0 |] in
  let res = Rand_dsf.run ~rng:(rng 1) inst in
  Alcotest.(check bool) "feasible" true (Instance.is_feasible inst res.Rand_dsf.solution);
  (* The only simple path is forced; weight must be exactly 5. *)
  check Alcotest.int "exact on a path" 5 res.Rand_dsf.weight

let test_rand_empty () =
  let g = Gen.path 4 in
  let inst = Instance.make_ic g [| -1; -1; -1; -1 |] in
  let res = Rand_dsf.run ~rng:(rng 2) inst in
  check Alcotest.int "no edges" 0 res.Rand_dsf.weight

let test_rand_regimes_agree_on_feasibility () =
  let inst = random_instance 7 in
  let a = Rand_dsf.run ~force_truncate:false ~rng:(rng 3) inst in
  let b = Rand_dsf.run ~force_truncate:true ~rng:(rng 4) inst in
  Alcotest.(check bool) "untruncated feasible" true
    (Instance.is_feasible inst a.Rand_dsf.solution);
  Alcotest.(check bool) "truncated feasible" true
    (Instance.is_feasible inst b.Rand_dsf.solution);
  Alcotest.(check bool) "regimes recorded" true
    ((not a.Rand_dsf.truncated) && b.Rand_dsf.truncated)

let test_rand_deterministic_given_seed () =
  let inst = random_instance 9 in
  let a = Rand_dsf.run ~rng:(rng 5) inst in
  let b = Rand_dsf.run ~rng:(rng 5) inst in
  check Alcotest.int "reproducible" a.Rand_dsf.weight b.Rand_dsf.weight

let test_rand_more_repetitions_no_worse () =
  let inst = random_instance 11 in
  let one = Rand_dsf.run ~repetitions:1 ~rng:(rng 6) inst in
  let many = Rand_dsf.run ~repetitions:6 ~rng:(rng 6) inst in
  (* Repetition 1 of both runs uses the same split seed, so min over more
     repetitions cannot be heavier. *)
  Alcotest.(check bool) "min over reps" true
    (many.Rand_dsf.weight <= one.Rand_dsf.weight)

let prop_rand_feasible_logn_ratio =
  QCheck.Test.make
    ~name:"rand_dsf: feasible, within O(log n) of OPT (Thm 5.2)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let res = Rand_dsf.run ~rng:(rng (seed + 1)) inst in
      let opt = Exact.steiner_forest_weight inst in
      Instance.is_feasible inst res.Rand_dsf.solution
      && float_of_int res.Rand_dsf.weight
         <= 3.0 *. log (float_of_int 24) *. float_of_int opt)

let prop_rand_truncated_feasible =
  QCheck.Test.make
    ~name:"rand_dsf truncated regime: always feasible" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let res = Rand_dsf.run ~force_truncate:true ~rng:(rng (seed + 2)) inst in
      Instance.is_feasible inst res.Rand_dsf.solution)

(* ----------------------------------------------------------- Det_sublinear *)

let norm_pairs ps = List.map (fun (a, b) -> min a b, max a b) ps |> List.sort compare

let test_sublinear_pair_path () =
  let g = Gen.path 6 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; -1; 0 |] in
  let res = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
  check Alcotest.int "exact on path" 5 res.Det_sublinear.weight

let test_sublinear_sigma () =
  let inst = random_instance ~n:30 13 in
  let res = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
  Alcotest.(check bool) "sigma = sqrt(min(st, n)) <= sqrt n" true
    (res.Det_sublinear.sigma * res.Det_sublinear.sigma <= 2 * 30)

let test_sublinear_ledger_entries () =
  let inst = random_instance 15 in
  let tel = Dsf_congest.Telemetry.create () in
  let res = Det_sublinear.run ~telemetry:tel ~eps_num:1 ~eps_den:2 inst in
  (* The decomposition Bellman-Ford runs, and the ledger holds exactly
     the rounds the engine ran. *)
  let decomposition =
    Dsf_congest.Telemetry.find tel [ "growth"; "merge_phase"; "region_bf" ]
  in
  Alcotest.(check bool) "decomposition BF ran" true
    (match decomposition with
    | Some s -> s.Dsf_congest.Telemetry.rounds > 0
    | None -> false);
  check Alcotest.int "simulated = engine rounds"
    (Dsf_util.Metrics.counter_value (Dsf_congest.Telemetry.metrics tel)
       "sim/rounds")
    (Dsf_congest.Ledger.simulated res.Det_sublinear.ledger)

let prop_sublinear_matches_rounded_schedule =
  QCheck.Test.make
    ~name:"det_sublinear: merge schedule = Moat_rounded's (Lemma F.4)"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~n:20 ~t:8 ~k:3 seed in
      let sub = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
      let cen = Moat_rounded.run ~eps_num:1 ~eps_den:2 inst in
      norm_pairs sub.Det_sublinear.merge_pairs
      = norm_pairs cen.Moat_rounded.merge_pairs)

let prop_sublinear_eps_approx =
  QCheck.Test.make
    ~name:"det_sublinear: feasible, within (2+eps)*OPT (Cor 4.21)" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~n:20 ~t:8 ~k:3 seed in
      let res = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
      let opt = Exact.steiner_forest_weight inst in
      Instance.is_feasible inst res.Det_sublinear.solution
      && float_of_int res.Det_sublinear.weight
         <= (2.5 *. float_of_int opt) +. 1e-9)

let prop_sublinear_growth_phase_bound =
  QCheck.Test.make
    ~name:"det_sublinear: O(log WD / eps) growth phases (Lemma F.1)"
    ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let res = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
      let wd = Paths.diameter_weighted inst.Instance.graph in
      (* mu-hat grows by >= 1/4 multiplicatively from scale/2; generous cap. *)
      let bound =
        int_of_float (8.0 *. (log (float_of_int (wd * 32)) /. log 1.25)) + 8
      in
      res.Det_sublinear.growth_phases <= bound)

(* ---------------------------------------------------------- Reduced_solver *)

let test_reduced_solver_empty_s () =
  let inst = random_instance 21 in
  let f = Array.make (Graph.m inst.Instance.graph) false in
  let out = Reduced_solver.solve inst ~f ~s_set:[] ~diameter:3 in
  check Alcotest.int "no extras" 0
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0
       out.Reduced_solver.extra_edges)

let test_reduced_solver_completes_partial () =
  (* Path 0..5, terminals 0 and 5 same label.  F pre-connects 0-1-2 and
     3-4-5; S = {2, 3}.  Each terminal clusters to an S node; the reduced
     instance must select the bridging edge 2-3. *)
  let g = Gen.path 6 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; -1; 0 |] in
  let f = Array.make 5 false in
  let set u v = match Graph.find_edge g u v with Some id -> f.(id) <- true | None -> () in
  set 0 1;
  set 1 2;
  set 3 4;
  set 4 5;
  let out = Reduced_solver.solve inst ~f ~s_set:[ 2; 3 ] ~diameter:5 in
  let union = Array.mapi (fun i b -> b || out.Reduced_solver.extra_edges.(i)) f in
  Alcotest.(check bool) "union feasible" true (Instance.is_feasible inst union);
  check Alcotest.int "two super-terminals" 2 out.Reduced_solver.reduced_terminal_count

let prop_reduced_solver_union_feasible =
  QCheck.Test.make
    ~name:"reduced solver: F ∪ F' always feasible (Lemma G.13 setting)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let inst = random_instance ~n:24 seed in
      let g = inst.Instance.graph in
      (* A random partial forest F + random S. *)
      let f = Array.make (Graph.m g) false in
      Array.iter
        (fun (e : Graph.edge) ->
          if Dsf_util.Rng.float r 1.0 < 0.3 then f.(e.id) <- true)
        (Graph.edges g);
      let s_set =
        Dsf_util.Rng.sample_without_replacement r 5 24 |> Array.to_list
      in
      let out = Reduced_solver.solve inst ~f ~s_set ~diameter:5 in
      let union = Array.mapi (fun i b -> b || out.Reduced_solver.extra_edges.(i)) f in
      (* The reduced instance only guarantees feasibility when every
         terminal is in some T_v (otherwise only w.h.p. through F); with a
         random F some terminals may be unassigned, so only require
         feasibility when all were assigned. *)
      out.Reduced_solver.unassigned_terminals > 0
      || Instance.is_feasible inst union)

let suites =
  [
    ( "core.rand_dsf",
      [
        Alcotest.test_case "pair on path" `Quick test_rand_pair_path;
        Alcotest.test_case "empty instance" `Quick test_rand_empty;
        Alcotest.test_case "both regimes" `Quick test_rand_regimes_agree_on_feasibility;
        Alcotest.test_case "reproducible" `Quick test_rand_deterministic_given_seed;
        Alcotest.test_case "repetitions only help" `Quick test_rand_more_repetitions_no_worse;
        Alcotest.test_case "parameters come from simulated runs" `Quick
          test_parameters_from_simulation;
        qtest prop_rand_feasible_logn_ratio;
        qtest prop_rand_truncated_feasible;
      ] );
    ( "core.det_sublinear",
      [
        Alcotest.test_case "pair on path" `Quick test_sublinear_pair_path;
        Alcotest.test_case "sigma bound" `Quick test_sublinear_sigma;
        Alcotest.test_case "ledger entries" `Quick test_sublinear_ledger_entries;
        qtest prop_sublinear_matches_rounded_schedule;
        qtest prop_sublinear_eps_approx;
        qtest prop_sublinear_growth_phase_bound;
      ] );
    ( "core.reduced_solver",
      [
        Alcotest.test_case "empty S" `Quick test_reduced_solver_empty_s;
        Alcotest.test_case "bridges partial forest" `Quick test_reduced_solver_completes_partial;
        qtest prop_reduced_solver_union_feasible;
      ] );
  ]
