(* Cross-topology fuzzing: random instances drawn from the full generator
   zoo, pushed through the core algorithms with the strongest invariants
   asserted on every draw.  This is the suite that shakes out interactions
   the per-module tests cannot (odd topologies x odd label layouts x
   algorithm internals). *)

open Dsf_graph
open Dsf_core

let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* A topology zoo indexed by seed. *)
let random_graph r =
  match Dsf_util.Rng.int r 8 with
  | 0 -> Gen.random_connected r ~n:(10 + Dsf_util.Rng.int r 25) ~extra_edges:20 ~max_w:9
  | 1 -> Gen.reweight r ~max_w:9 (Gen.grid ~rows:(2 + Dsf_util.Rng.int r 4) ~cols:(2 + Dsf_util.Rng.int r 5))
  | 2 -> Gen.reweight r ~max_w:9 (Gen.cycle (5 + Dsf_util.Rng.int r 25))
  | 3 -> Gen.reweight r ~max_w:9 (Gen.path (4 + Dsf_util.Rng.int r 30))
  | 4 -> Gen.reweight r ~max_w:9 (Gen.star (4 + Dsf_util.Rng.int r 25))
  | 5 -> Gen.random_geometric r ~n:(10 + Dsf_util.Rng.int r 20) ~radius:0.35 ~max_w:20
  | 6 ->
      Gen.clustered r ~clusters:(2 + Dsf_util.Rng.int r 2)
        ~cluster_size:(4 + Dsf_util.Rng.int r 6)
        ~intra_extra:3 ~bridges:2 ~intra_w:4 ~bridge_w:25
  | _ -> Gen.reweight r ~max_w:9 (Gen.lollipop ~clique:(3 + Dsf_util.Rng.int r 4) ~tail:(3 + Dsf_util.Rng.int r 10))

let random_instance seed =
  let r = rng seed in
  let g = random_graph r in
  let n = Graph.n g in
  let k = 1 + Dsf_util.Rng.int r 3 in
  let t = min n (2 * k + Dsf_util.Rng.int r 5) in
  if t < 2 * k then None
  else Some (Instance.make_ic g (Gen.random_labels r ~n ~t ~k))

let with_instance seed f =
  match random_instance seed with None -> true | Some inst -> f inst

let prop_fuzz_det_schedule =
  QCheck.Test.make
    ~name:"fuzz: Det_dsf follows Moat's schedule on the topology zoo"
    ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let det = Det_dsf.run inst in
          let cen = Moat.run inst in
          Instance.is_feasible inst det.Det_dsf.solution
          && Frac.equal det.Det_dsf.dual cen.Moat.dual
          && det.Det_dsf.phase_count = cen.Moat.phase_count))

let prop_fuzz_sublinear_schedule =
  QCheck.Test.make
    ~name:"fuzz: Det_sublinear follows Moat_rounded's schedule on the zoo"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let sub = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
          let cen = Moat_rounded.run ~eps_num:1 ~eps_den:2 inst in
          let norm ps =
            List.map (fun (a, b) -> min a b, max a b) ps |> List.sort compare
          in
          Instance.is_feasible inst sub.Det_sublinear.solution
          && norm sub.Det_sublinear.merge_pairs
             = norm cen.Moat_rounded.merge_pairs))

let prop_fuzz_rand_feasible =
  QCheck.Test.make
    ~name:"fuzz: Rand_dsf feasible and dual-bounded on the zoo" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let res = Rand_dsf.run ~repetitions:1 ~rng:(rng (seed + 13)) inst in
          if not (Instance.is_feasible inst res.Rand_dsf.solution) then false
          else begin
            (* The deterministic dual certifies an O(log n) ratio. *)
            let det = Det_dsf.run inst in
            let dual = Frac.to_float det.Det_dsf.dual in
            let n = Graph.n inst.Instance.graph in
            (* One repetition only gives the O(log n) ratio in expectation;
               allow generous constants so the test checks the order of
               magnitude, not the tail. *)
            dual <= 0.
            || float_of_int res.Rand_dsf.weight
               <= 8.0 *. (1.0 +. log (float_of_int (max 4 n))) *. dual
          end))

let prop_fuzz_pruning_fixpoint =
  QCheck.Test.make
    ~name:"fuzz: F.3 pruning is the minimal-subforest fixpoint on the zoo"
    ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let f = Mst.kruskal inst.Instance.graph in
          if not (Instance.is_feasible inst f) then true
          else begin
            let res = Pruning.run inst ~f ~sigma:4 in
            res.Pruning.pruned = Instance.prune inst f
          end))

let prop_fuzz_solver_reports =
  QCheck.Test.make
    ~name:"fuzz: Solver reports are self-consistent on the zoo" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          List.for_all
            (fun (r : Solver.report) ->
              r.Solver.feasible
              && r.Solver.weight = Instance.solution_weight inst r.Solver.solution
              && (match Certify.check ?dual:r.Solver.dual_lower_bound inst
                          ~solution:r.Solver.solution with
                 | Ok _ -> true
                 | Error _ -> false))
            (Solver.compare_all
               ~algorithms:
                 [
                   Solver.Det;
                   Solver.Det_sublinear { eps_num = 1; eps_den = 1 };
                   Solver.Rand
                     { repetitions = 1; rng = Dsf_util.Rng.create seed };
                 ]
               (Solver.Ic inst))))

let prop_fuzz_cr_pipeline =
  QCheck.Test.make
    ~name:"fuzz: CR transform + solve serves every request on the zoo"
    ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r = rng seed in
      let g = random_graph r in
      let n = Graph.n g in
      let requests = Array.make n [] in
      for _ = 1 to 1 + Dsf_util.Rng.int r 6 do
        let a = Dsf_util.Rng.int r n and b = Dsf_util.Rng.int r n in
        if a <> b then requests.(a) <- b :: requests.(a)
      done;
      let cr = Instance.make_cr g requests in
      let rep = Solver.solve_cr Solver.Det cr in
      Instance.cr_is_feasible cr rep.Solver.solution)

let suites =
  [
    ( "fuzz",
      [
        qtest prop_fuzz_det_schedule;
        qtest prop_fuzz_sublinear_schedule;
        qtest prop_fuzz_rand_feasible;
        qtest prop_fuzz_pruning_fixpoint;
        qtest prop_fuzz_solver_reports;
        qtest prop_fuzz_cr_pipeline;
      ] );
  ]
