open Dsf_graph
open Dsf_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let frac_testable =
  Alcotest.testable Frac.pp Frac.equal

(* ------------------------------------------------------------------ Frac *)

let f n d = Frac.make n d

let test_frac_normalize () =
  check frac_testable "4/2^2 = 1" Frac.one (f 4 2);
  check frac_testable "6/2^1 = 3" (Frac.of_int 3) (f 6 1);
  check frac_testable "0/2^5 = 0" Frac.zero (f 0 5)

let test_frac_arith () =
  check frac_testable "1/2 + 1/2 = 1" Frac.one (Frac.add (f 1 1) (f 1 1));
  check frac_testable "3 - 1/4 = 11/4" (f 11 2) (Frac.sub (Frac.of_int 3) (f 1 2));
  check frac_testable "half 3 = 3/2" (f 3 1) (Frac.half (Frac.of_int 3));
  check frac_testable "double 3/4 = 3/2" (f 3 1) (Frac.double (f 3 2));
  check frac_testable "5 * 1/4" (f 5 2) (Frac.mul_int (f 1 2) 5)

let test_frac_compare () =
  Alcotest.(check bool) "1/2 < 3/4" true (Frac.compare (f 1 1) (f 3 2) < 0);
  Alcotest.(check bool) "min" true (Frac.equal (f 1 1) (Frac.min (f 1 1) Frac.one));
  Alcotest.(check bool) "max" true (Frac.equal Frac.one (Frac.max (f 1 1) Frac.one));
  check Alcotest.int "sign neg" (-1) (Frac.sign (Frac.neg Frac.one));
  check Alcotest.int "sign zero" 0 (Frac.sign Frac.zero)

let test_frac_int_conversions () =
  Alcotest.(check bool) "is_int 2" true (Frac.is_int (Frac.of_int 2));
  Alcotest.(check bool) "not int 1/2" false (Frac.is_int (f 1 1));
  check Alcotest.int "to_int" 7 (Frac.to_int_exn (Frac.of_int 7));
  check (Alcotest.float 1e-12) "to_float" 0.75 (Frac.to_float (f 3 2))

let prop_frac_add_assoc =
  QCheck.Test.make ~name:"frac addition associative and exact" ~count:200
    QCheck.(triple (pair (int_range (-1000) 1000) (int_range 0 8))
              (pair (int_range (-1000) 1000) (int_range 0 8))
              (pair (int_range (-1000) 1000) (int_range 0 8)))
    (fun ((a, pa), (b, pb), (c, pc)) ->
      let x = f a pa and y = f b pb and z = f c pc in
      Frac.equal (Frac.add (Frac.add x y) z) (Frac.add x (Frac.add y z))
      && Frac.equal (Frac.sub (Frac.add x y) y) x
      && Frac.equal (Frac.double (Frac.half x)) x)

(* ------------------------------------------------------------------ Moat *)

let random_instance ?(n = 14) ?(extra = 10) ?(max_w = 8) ?(t = 6) ?(k = 2) seed =
  let r = rng seed in
  let g = Gen.random_connected r ~n ~extra_edges:extra ~max_w in
  let labels = Gen.random_labels r ~n ~t ~k in
  Instance.make_ic g labels

let test_moat_two_terminals_path () =
  (* Single pair on a path: output = the shortest path, dual = its weight. *)
  let g = Gen.path 5 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; 0 |] in
  let res = Moat.run inst in
  check Alcotest.int "weight = distance" 4 res.Moat.weight;
  check frac_testable "dual = distance" (Frac.of_int 4) res.Moat.dual

let test_moat_star () =
  let g = Gen.star 5 in
  let inst = Instance.make_ic g [| -1; 0; 0; 0; -1 |] in
  let res = Moat.run inst in
  check Alcotest.int "3 spokes" 3 res.Moat.weight;
  Alcotest.(check bool) "feasible" true (Instance.is_feasible inst res.Moat.solution)

let test_moat_empty_instance () =
  let g = Gen.path 4 in
  let inst = Instance.make_ic g [| -1; -1; -1; -1 |] in
  let res = Moat.run inst in
  check Alcotest.int "no edges" 0 res.Moat.weight;
  check Alcotest.int "no merges" 0 (List.length res.Moat.merges)

let test_moat_singleton_dropped () =
  (* A singleton component must not force any edges. *)
  let g = Gen.path 4 in
  let inst = Instance.make_ic g [| 0; 7; -1; 0 |] in
  let res = Moat.run inst in
  Alcotest.(check bool) "feasible" true (Instance.is_feasible inst res.Moat.solution);
  check Alcotest.int "only the pair's path" 3 res.Moat.weight

let test_moat_phase_bound () =
  (* Lemma 4.4: number of merge phases <= 2k. *)
  for seed = 0 to 10 do
    let inst = random_instance ~t:10 ~k:3 seed in
    let res = Moat.run inst in
    Alcotest.(check bool)
      (Printf.sprintf "phases <= 2k (seed %d)" seed)
      true
      (res.Moat.phase_count <= 2 * 3)
  done

let test_moat_merge_count () =
  (* Each merge reduces the number of moats by one: at most t - 1 merges. *)
  let inst = random_instance ~t:8 ~k:2 3 in
  let res = Moat.run inst in
  Alcotest.(check bool) "merges <= t-1" true (List.length res.Moat.merges <= 7)

let prop_moat_two_approx =
  QCheck.Test.make
    ~name:"moat: feasible, weight <= 2*OPT, dual <= OPT (Thm 4.1, Lem C.4)"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let res = Moat.run inst in
      let opt = Exact.steiner_forest_weight inst in
      Instance.is_feasible inst res.Moat.solution
      && res.Moat.weight <= 2 * opt
      && Frac.compare res.Moat.dual (Frac.of_int opt) <= 0
      && Frac.compare (Frac.of_int res.Moat.weight) (Frac.double res.Moat.dual) < 0
      || (opt = 0 && res.Moat.weight = 0))

let prop_moat_output_is_pruned_forest =
  QCheck.Test.make ~name:"moat: output is a minimal feasible forest" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~t:8 ~k:3 ~n:18 seed in
      let res = Moat.run inst in
      Instance.is_forest inst.Instance.graph res.Moat.solution
      && res.Moat.solution = Instance.prune inst res.Moat.solution)

let prop_moat_mu_nonnegative_monotone_dual =
  QCheck.Test.make ~name:"moat: growth amounts nonnegative, dual correct"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let res = Moat.run inst in
      let recomputed =
        List.fold_left
          (fun acc m -> Frac.add acc (Frac.mul_int m.Moat.mu m.Moat.active_moats))
          Frac.zero res.Moat.merges
      in
      List.for_all (fun m -> Frac.sign m.Moat.mu >= 0) res.Moat.merges
      && Frac.equal recomputed res.Moat.dual)

(* ----------------------------------------------------------- Moat_rounded *)

let test_rounded_matches_plain_on_pairs () =
  let g = Gen.path 5 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; 0 |] in
  let res = Moat_rounded.run ~eps_num:1 ~eps_den:2 inst in
  check Alcotest.int "weight" 4 res.Moat_rounded.weight

let test_rounded_growth_phases_scale_with_eps () =
  let inst = random_instance ~n:20 ~t:8 ~k:2 5 in
  let coarse = Moat_rounded.run ~eps_num:1 ~eps_den:1 inst in
  let fine = Moat_rounded.run ~eps_num:1 ~eps_den:10 inst in
  Alcotest.(check bool) "more phases for smaller eps" true
    (fine.Moat_rounded.growth_phases > coarse.Moat_rounded.growth_phases)

let test_rounded_rejects_bad_eps () =
  let inst = random_instance 1 in
  Alcotest.check_raises "eps > 1"
    (Invalid_argument "Moat_rounded.run: need 0 < eps <= 1") (fun () ->
      ignore (Moat_rounded.run ~eps_num:3 ~eps_den:2 inst));
  Alcotest.check_raises "eps = 0"
    (Invalid_argument "Moat_rounded.run: need 0 < eps <= 1") (fun () ->
      ignore (Moat_rounded.run ~eps_num:0 ~eps_den:1 inst))

let prop_rounded_eps_approx =
  QCheck.Test.make
    ~name:"rounded moat: feasible and within (2+eps)*OPT (Thm 4.2)" ~count:30
    QCheck.(pair (int_range 0 100_000) (int_range 1 10))
    (fun (seed, den) ->
      let inst = random_instance seed in
      let res = Moat_rounded.run ~eps_num:1 ~eps_den:den inst in
      let opt = Exact.steiner_forest_weight inst in
      let eps = 1.0 /. float_of_int den in
      Instance.is_feasible inst res.Moat_rounded.solution
      && float_of_int res.Moat_rounded.weight
         <= ((2.0 +. eps) *. float_of_int opt) +. 1e-9)

let prop_rounded_dual_bound =
  QCheck.Test.make
    ~name:"rounded moat: dual/(1+eps/2) lower-bounds OPT (Cor D.1)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let res = Moat_rounded.run ~eps_num:1 ~eps_den:2 inst in
      let opt = Exact.steiner_forest_weight inst in
      (* dual <= (1 + eps/2) * scale * OPT *)
      res.Moat_rounded.dual_unscaled <= (1.25 *. float_of_int opt) +. 1e-6)

(* --------------------------------------------------------------- Region_bf *)

let test_region_bf_basic_voronoi () =
  let g = Gen.path 7 in
  let frozen = Array.make 7 false in
  let res =
    Region_bf.run g ~frozen
      ~sources:[ 0, Frac.zero, 0; 6, Frac.zero, 6 ]
  in
  check Alcotest.int "left owner" 0 res.(2).Region_bf.owner;
  check Alcotest.int "tie to smaller owner" 0 res.(3).Region_bf.owner;
  check Alcotest.int "right owner" 6 res.(5).Region_bf.owner

let test_region_bf_negative_offsets () =
  (* A head start (negative offset) extends reach: source 6 with offset -3
     wins the whole path despite symmetric distances. *)
  let g = Gen.path 7 in
  let frozen = Array.make 7 false in
  let res =
    Region_bf.run g ~frozen
      ~sources:[ 0, Frac.zero, 0; 6, Frac.of_int (-3), 6 ]
  in
  check Alcotest.int "boundary shifted" 6 res.(2).Region_bf.owner;
  check frac_testable "offset arithmetic" (Frac.of_int 1)
    res.(2).Region_bf.offset

let test_region_bf_frozen_blocks () =
  (* Frozen middle node: the right side is unreachable from source 0. *)
  let g = Gen.path 5 in
  let frozen = [| false; false; true; false; false |] in
  let res = Region_bf.run g ~frozen ~sources:[ 0, Frac.zero, 0 ] in
  check Alcotest.int "reached" 0 res.(1).Region_bf.owner;
  check Alcotest.int "frozen unowned" (-1) res.(2).Region_bf.owner;
  check Alcotest.int "blocked" (-1) res.(3).Region_bf.owner

let test_region_bf_pinned_sources () =
  (* A pinned source keeps its own (worse) label rather than adopting. *)
  let g = Gen.path 3 in
  let frozen = Array.make 3 false in
  let res =
    Region_bf.run g ~frozen
      ~sources:[ 0, Frac.zero, 0; 2, Frac.of_int 10, 2 ]
  in
  check Alcotest.int "pinned keeps owner" 2 res.(2).Region_bf.owner;
  check frac_testable "pinned keeps offset" (Frac.of_int 10)
    res.(2).Region_bf.offset;
  check Alcotest.int "middle goes to 0" 0 res.(1).Region_bf.owner

let test_region_bf_fractional_halves () =
  let g = Gen.path 4 in
  let frozen = Array.make 4 false in
  let res =
    Region_bf.run g ~frozen
      ~sources:[ 0, Frac.make 1 1, 0 ]
  in
  check frac_testable "1/2 + 2 = 5/2" (Frac.make 5 1) res.(2).Region_bf.offset

let prop_region_bf_equals_centralized_voronoi =
  QCheck.Test.make
    ~name:"region BF = centralized Voronoi (owners and reduced distances)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 22 in
      let g = Gen.random_connected r ~n ~extra_edges:18 ~max_w:9 in
      let sources =
        Dsf_util.Rng.sample_without_replacement r 4 n
        |> Array.to_list
        |> List.map (fun v -> v, Frac.zero, v)
      in
      let frozen = Array.make n false in
      let res = Region_bf.run g ~sources ~frozen in
      (* Centralized reference: per-source Dijkstra, lexicographic
         (distance, source id) assignment. *)
      let dists =
        List.map (fun (v, _, _) -> v, fst (Paths.dijkstra g ~src:v)) sources
      in
      let ok = ref true in
      for u = 0 to n - 1 do
        let best =
          List.fold_left
            (fun acc (src, d) ->
              match acc with
              | Some (bd, bs) when (bd, bs) <= (d.(u), src) -> acc
              | _ -> Some (d.(u), src))
            None dists
        in
        match best with
        | Some (bd, bs) ->
            if
              res.(u).Region_bf.owner <> bs
              || not (Frac.equal res.(u).Region_bf.offset (Frac.of_int bd))
            then ok := false
        | None -> ok := false
      done;
      !ok)

(* ----------------------------------------------------------------- Det_dsf *)

let test_det_simple_pair () =
  let g = Gen.path 5 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; 0 |] in
  let res = Det_dsf.run inst in
  check Alcotest.int "weight" 4 res.Det_dsf.weight;
  check Alcotest.int "one merge" 1 (List.length res.Det_dsf.merges)

let test_det_two_components () =
  let g = Graph.make ~n:4 [ 0, 1, 1; 1, 2, 100; 2, 3, 1 ] in
  let inst = Instance.make_ic g [| 0; 0; 1; 1 |] in
  let res = Det_dsf.run inst in
  check Alcotest.int "two cheap paths" 2 res.Det_dsf.weight;
  check Alcotest.int "two phases" 2 res.Det_dsf.phase_count

(* The widest edge-round of any run of the solve: the telemetry attached
   to it sees every simulated run, spanned or not. *)
let max_edge_round_bits tel =
  let rec go (s : Dsf_congest.Telemetry.span) =
    List.fold_left
      (fun m c -> max m (go c))
      s.Dsf_congest.Telemetry.max_edge_round_bits s.Dsf_congest.Telemetry.children
  in
  go (Dsf_congest.Telemetry.root tel)

let test_det_congestion_discipline () =
  let inst = random_instance ~n:30 ~t:8 ~k:2 7 in
  let tel = Dsf_congest.Telemetry.create () in
  ignore (Det_dsf.run ~telemetry:tel inst);
  let budget = Dsf_util.Bitsize.congest_budget ~n:30 in
  let merb = max_edge_round_bits tel in
  Alcotest.(check bool) "per-edge-round bits within O(log n) budget" true
    (merb > 0 && merb <= budget)

let test_det_ledger_structure () =
  let inst = random_instance 11 in
  let tel = Dsf_congest.Telemetry.create () in
  let res = Det_dsf.run ~telemetry:tel inst in
  (* The engine counts the simulated rounds; det names one charge, the
     final edge-level prune. *)
  check Alcotest.int "simulated = engine rounds"
    (Dsf_util.Metrics.counter_value (Dsf_congest.Telemetry.metrics tel)
       "sim/rounds")
    (Dsf_congest.Ledger.simulated res.Det_dsf.ledger);
  check
    Alcotest.(list string)
    "one charge"
    [ "final: edge-level prune (F.3 style)" ]
    (List.map fst (Dsf_congest.Ledger.charges res.Det_dsf.ledger));
  Alcotest.(check bool) "simulated dominates" true
    (Dsf_congest.Ledger.simulated res.Det_dsf.ledger > 0);
  Alcotest.(check bool) "total = sim + charged" true
    (Dsf_congest.Ledger.total res.Det_dsf.ledger
    = Dsf_congest.Ledger.simulated res.Det_dsf.ledger
      + Dsf_congest.Ledger.charged res.Det_dsf.ledger)

(* An instance whose components are all singletons minimalizes to t = 0.
   The minimalization still runs on the network, so det and sublinear
   report its rounds, counted by the engine, on that early return. *)
let test_singletons_report_minimalize_rounds () =
  let g = Gen.path 6 in
  let inst = Instance.make_ic g [| 0; -1; 2; -1; -1; 5 |] in
  let engine_rounds run =
    let tel = Dsf_congest.Telemetry.create () in
    let ledger = run tel in
    let sim = Dsf_congest.Ledger.simulated ledger in
    check Alcotest.int "simulated = engine rounds"
      (Dsf_util.Metrics.counter_value (Dsf_congest.Telemetry.metrics tel)
         "sim/rounds")
      sim;
    Alcotest.(check bool) "minimalize rounds reported" true (sim > 0)
  in
  engine_rounds (fun tel ->
      let res = Det_dsf.run ~telemetry:tel inst in
      check Alcotest.int "det: empty solution" 0 res.Det_dsf.weight;
      res.Det_dsf.ledger);
  engine_rounds (fun tel ->
      let res = Det_sublinear.run ~telemetry:tel ~eps_num:1 ~eps_den:2 inst in
      check Alcotest.int "sublinear: empty solution" 0
        res.Det_sublinear.weight;
      res.Det_sublinear.ledger)

let prop_det_matches_centralized_dual =
  QCheck.Test.make
    ~name:"det_dsf: dual and merge schedule match centralized Algorithm 1"
    ~count:50
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~n:16 ~t:6 ~k:2 seed in
      let det = Det_dsf.run inst in
      let cen = Moat.run inst in
      (* The schedule is the sequence of growth increments between
         merges.  Terminal pairs are not compared: on a growth tie the two
         may pick different terminals of the same two moats. *)
      Frac.equal det.Det_dsf.dual cen.Moat.dual
      && List.equal Frac.equal
           (List.map (fun m -> m.Det_dsf.mu_increment) det.Det_dsf.merges)
           (List.map (fun m -> m.Moat.mu) cen.Moat.merges)
      && det.Det_dsf.phase_count = cen.Moat.phase_count)

let prop_det_feasible_two_approx =
  QCheck.Test.make
    ~name:"det_dsf: feasible and within 2*OPT (Thm 4.17)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~n:16 ~t:6 ~k:2 seed in
      let det = Det_dsf.run inst in
      let opt = Exact.steiner_forest_weight inst in
      Instance.is_feasible inst det.Det_dsf.solution
      && det.Det_dsf.weight <= 2 * opt)

let prop_det_output_minimal =
  QCheck.Test.make ~name:"det_dsf: output forest is already minimal"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~n:16 ~t:6 ~k:2 seed in
      let det = Det_dsf.run inst in
      Instance.is_forest inst.Instance.graph det.Det_dsf.solution
      && det.Det_dsf.solution = Instance.prune inst det.Det_dsf.solution)

let prop_det_multi_component =
  QCheck.Test.make ~name:"det_dsf: k=4 spread instances stay correct"
    ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:40 ~extra_edges:30 ~max_w:10 in
      let labels = Gen.spread_labels r g ~t:12 ~k:4 in
      let inst = Instance.make_ic g labels in
      let det = Det_dsf.run inst in
      let cen = Moat.run inst in
      Instance.is_feasible inst det.Det_dsf.solution
      && Frac.equal det.Det_dsf.dual cen.Moat.dual)

(* --------------------------------------------------------------- Transform *)

let test_transform_cr_to_ic () =
  let g = Gen.path 6 in
  let requests = Array.make 6 [] in
  requests.(0) <- [ 2 ];
  requests.(2) <- [ 4 ];
  requests.(5) <- [ 1 ];
  let cr = Instance.make_cr g requests in
  let ledger = Dsf_congest.Ledger.create () in
  let inst =
    Transform.cr_to_ic
      ~env:{ Dsf_congest.Sim.default_env with ledger = Some ledger }
      cr
  in
  check Alcotest.int "k = 2" 2 (Instance.component_count inst);
  Alcotest.(check bool) "0,2,4 together" true
    (inst.Instance.labels.(0) = inst.Instance.labels.(4));
  Alcotest.(check bool) "1,5 together" true
    (inst.Instance.labels.(1) = inst.Instance.labels.(5));
  Alcotest.(check bool) "groups differ" true
    (inst.Instance.labels.(0) <> inst.Instance.labels.(1));
  Alcotest.(check bool) "rounds ~ O(D + t)" true
    (Dsf_congest.Ledger.simulated ledger <= 40)

let test_transform_cr_matches_centralized () =
  let r = rng 3 in
  let g = Gen.random_connected r ~n:20 ~extra_edges:15 ~max_w:5 in
  let requests = Array.make 20 [] in
  List.iter
    (fun _ ->
      let v = Dsf_util.Rng.int r 20 and w = Dsf_util.Rng.int r 20 in
      if v <> w then requests.(v) <- w :: requests.(v))
    (List.init 10 Fun.id);
  let cr = Instance.make_cr g requests in
  let distributed = Transform.cr_to_ic cr in
  let centralized = Instance.ic_of_cr cr in
  (* Same partition of terminals, possibly different label names. *)
  let partition inst =
    Instance.components inst |> List.map snd |> List.sort compare
  in
  check
    Alcotest.(list (list int))
    "same partition" (partition centralized) (partition distributed)

let test_transform_minimalize () =
  let g = Gen.path 6 in
  let inst = Instance.make_ic g [| 0; 1; -1; 0; 2; 2 |] in
  let ledger = Dsf_congest.Ledger.create () in
  let out =
    Transform.minimalize
      ~env:{ Dsf_congest.Sim.default_env with ledger = Some ledger }
      inst
  in
  check Alcotest.int "k drops to 2" 2 (Instance.component_count out);
  check Alcotest.int "label 1 dropped" (-1) out.Instance.labels.(1);
  Alcotest.(check bool) "rounds bounded" true
    (Dsf_congest.Ledger.simulated ledger <= 40)

let prop_transform_minimalize_equiv =
  QCheck.Test.make
    ~name:"distributed minimalize = centralized minimalize" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:15 ~extra_edges:10 ~max_w:5 in
      let labels =
        Array.init 15 (fun _ ->
            if Dsf_util.Rng.bool r then Dsf_util.Rng.int r 5 else -1)
      in
      let inst = Instance.make_ic g labels in
      let distributed = Transform.minimalize inst in
      let centralized = Instance.minimalize inst in
      distributed.Instance.labels = centralized.Instance.labels)

let suites =
  [
    ( "core.frac",
      [
        Alcotest.test_case "normalize" `Quick test_frac_normalize;
        Alcotest.test_case "arithmetic" `Quick test_frac_arith;
        Alcotest.test_case "compare" `Quick test_frac_compare;
        Alcotest.test_case "conversions" `Quick test_frac_int_conversions;
        qtest prop_frac_add_assoc;
      ] );
    ( "core.moat",
      [
        Alcotest.test_case "pair on path" `Quick test_moat_two_terminals_path;
        Alcotest.test_case "star spokes" `Quick test_moat_star;
        Alcotest.test_case "empty instance" `Quick test_moat_empty_instance;
        Alcotest.test_case "singleton dropped" `Quick test_moat_singleton_dropped;
        Alcotest.test_case "phase bound (Lemma 4.4)" `Quick test_moat_phase_bound;
        Alcotest.test_case "merge count" `Quick test_moat_merge_count;
        qtest prop_moat_two_approx;
        qtest prop_moat_output_is_pruned_forest;
        qtest prop_moat_mu_nonnegative_monotone_dual;
      ] );
    ( "core.moat_rounded",
      [
        Alcotest.test_case "pair on path" `Quick test_rounded_matches_plain_on_pairs;
        Alcotest.test_case "phases scale with eps" `Quick
          test_rounded_growth_phases_scale_with_eps;
        Alcotest.test_case "rejects bad eps" `Quick test_rounded_rejects_bad_eps;
        qtest prop_rounded_eps_approx;
        qtest prop_rounded_dual_bound;
      ] );
    ( "core.region_bf",
      [
        Alcotest.test_case "voronoi" `Quick test_region_bf_basic_voronoi;
        Alcotest.test_case "negative offsets" `Quick test_region_bf_negative_offsets;
        Alcotest.test_case "frozen blocks" `Quick test_region_bf_frozen_blocks;
        Alcotest.test_case "pinned sources" `Quick test_region_bf_pinned_sources;
        Alcotest.test_case "fractional distances" `Quick test_region_bf_fractional_halves;
        qtest prop_region_bf_equals_centralized_voronoi;
      ] );
    ( "core.det_dsf",
      [
        Alcotest.test_case "pair on path" `Quick test_det_simple_pair;
        Alcotest.test_case "two components" `Quick test_det_two_components;
        Alcotest.test_case "congestion discipline" `Quick test_det_congestion_discipline;
        Alcotest.test_case "ledger structure" `Quick test_det_ledger_structure;
        Alcotest.test_case "singletons report minimalize rounds" `Quick
          test_singletons_report_minimalize_rounds;
        qtest prop_det_matches_centralized_dual;
        qtest prop_det_feasible_two_approx;
        qtest prop_det_output_minimal;
        qtest prop_det_multi_component;
      ] );
    ( "core.transform",
      [
        Alcotest.test_case "CR to IC" `Quick test_transform_cr_to_ic;
        Alcotest.test_case "CR matches centralized" `Quick
          test_transform_cr_matches_centralized;
        Alcotest.test_case "minimalize" `Quick test_transform_minimalize;
        qtest prop_transform_minimalize_equiv;
      ] );
  ]
