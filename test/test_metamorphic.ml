(* Metamorphic and cross-cutting properties: transformations of an instance
   with a predictable effect on every correct algorithm's output, plus
   tests for the Io and Params modules. *)

open Dsf_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let random_instance ?(n = 18) ?(extra = 14) ?(max_w = 8) ?(t = 6) ?(k = 2) seed =
  let r = rng seed in
  let g = Gen.random_connected r ~n ~extra_edges:extra ~max_w in
  let labels = Gen.random_labels r ~n ~t ~k in
  Instance.make_ic g labels

let weight_of_det inst = (Dsf_core.Det_dsf.run inst).Dsf_core.Det_dsf.weight

(* --------------------------------------------------------- metamorphic *)

let prop_weight_scaling =
  QCheck.Test.make
    ~name:"scaling all weights by c scales the deterministic solution by c"
    ~count:20
    QCheck.(pair (int_range 0 100_000) (int_range 2 5))
    (fun (seed, c) ->
      let inst = random_instance seed in
      let g = inst.Instance.graph in
      let scaled_g =
        Graph.make ~n:(Graph.n g)
          (Array.to_list (Graph.edges g)
          |> List.map (fun (e : Graph.edge) -> e.u, e.v, c * e.w))
      in
      let scaled = Instance.make_ic scaled_g inst.Instance.labels in
      weight_of_det scaled = c * weight_of_det inst)

let prop_parallel_heavy_edge_harmless =
  QCheck.Test.make
    ~name:"adding a very heavy extra edge never changes the solution weight"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let g = inst.Instance.graph in
      let r = rng (seed + 1) in
      (* Find a non-adjacent pair to connect with a huge edge. *)
      let rec pick tries =
        if tries = 0 then None
        else begin
          let u = Dsf_util.Rng.int r (Graph.n g)
          and v = Dsf_util.Rng.int r (Graph.n g) in
          if u <> v && Graph.find_edge g u v = None then Some (u, v)
          else pick (tries - 1)
        end
      in
      match pick 50 with
      | None -> QCheck.assume_fail ()
      | Some (u, v) ->
          let heavy = 1 + Graph.total_weight g in
          let g' =
            Graph.make ~n:(Graph.n g)
              ((u, v, heavy)
              :: (Array.to_list (Graph.edges g)
                 |> List.map (fun (e : Graph.edge) -> e.u, e.v, e.w)))
          in
          let inst' = Instance.make_ic g' inst.Instance.labels in
          weight_of_det inst' = weight_of_det inst)

(* Det and sublinear: between them they run both label union-finds
   (the moat state's and the pruning's). *)
let det_and_sublinear_weights inst =
  ( weight_of_det inst,
    (Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den:2 inst)
      .Dsf_core.Det_sublinear.weight )

let prop_label_renaming_invariant =
  QCheck.Test.make
    ~name:"renaming component labels does not change the solution weight"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~k:3 ~t:8 seed in
      let weights = det_and_sublinear_weights inst in
      (* A spread-out renaming, and one to labels near [max_int], which no
         per-label table may be sized by. *)
      List.for_all
        (fun rename ->
          let renamed =
            Array.map
              (fun l -> if l >= 0 then rename l else -1)
              inst.Instance.labels
          in
          det_and_sublinear_weights
            (Instance.make_ic inst.Instance.graph renamed)
          = weights)
        [ (fun l -> 100 + (7 * l)); (fun l -> max_int - l) ])

let prop_extra_singleton_harmless =
  QCheck.Test.make
    ~name:"adding a singleton component never changes the solution weight"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let labels = Array.copy inst.Instance.labels in
      (* Put a fresh singleton label on some unlabelled node. *)
      let free = ref (-1) in
      Array.iteri (fun v l -> if l < 0 && !free < 0 then free := v) labels;
      if !free < 0 then QCheck.assume_fail ()
      else begin
        labels.(!free) <- 999;
        let inst' = Instance.make_ic inst.Instance.graph labels in
        weight_of_det inst' = weight_of_det inst
      end)

let prop_merging_components_weakly_increases =
  QCheck.Test.make
    ~name:"merging two components never decreases the optimal/heuristic weight"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance ~k:2 ~t:6 seed in
      (* Merge label 1 into 0: strictly more constraints. *)
      let merged =
        Array.map (fun l -> if l >= 0 then 0 else -1) inst.Instance.labels
      in
      let inst' = Instance.make_ic inst.Instance.graph merged in
      let opt = Exact.steiner_forest_weight inst in
      let opt' = Exact.steiner_forest_weight inst' in
      opt' >= opt)

let prop_all_algorithms_agree_on_forced_path =
  QCheck.Test.make
    ~name:"on a path graph every algorithm returns the unique solution"
    ~count:10
    QCheck.(int_range 4 30)
    (fun n ->
      let g = Gen.path n in
      let labels = Array.make n (-1) in
      labels.(0) <- 0;
      labels.(n - 1) <- 0;
      let inst = Instance.make_ic g labels in
      let expect = n - 1 in
      weight_of_det inst = expect
      && (Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den:2 inst)
           .Dsf_core.Det_sublinear.weight
         = expect
      && (Dsf_core.Rand_dsf.run ~repetitions:1 ~rng:(rng n) inst)
           .Dsf_core.Rand_dsf.weight
         = expect)

(* The 4-node path whose total edge weight is exactly the input bound
   (one heavy edge, then 5 and 7), labelled end to end: every algorithm
   must return the whole path.  Below the bound lie the widest integers
   the algorithms form — virtual-tree radii (rand, khan) and sublinear's
   scaled distances, at the default and at the largest accepted eps. *)
let test_all_algorithms_at_weight_bound () =
  let bound = Graph.max_total_weight in
  let g = Graph.make ~n:4 [ 0, 1, bound - 12; 1, 2, 5; 2, 3, 7 ] in
  let inst = Instance.make_ic g [| 0; -1; -1; 0 |] in
  let sublinear eps_den =
    (Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den inst)
      .Dsf_core.Det_sublinear.solution
  in
  List.iter
    (fun (name, solution) ->
      Alcotest.(check bool) (name ^ " feasible") true
        (Instance.is_feasible inst solution);
      check Alcotest.int (name ^ " weight") bound
        (Graph.edge_set_weight g solution))
    [
      "det", (Dsf_core.Det_dsf.run inst).Dsf_core.Det_dsf.solution;
      "sublinear", sublinear 2;
      "sublinear at max_eps_den", sublinear Dsf_core.Det_sublinear.max_eps_den;
      ( "rand",
        (Dsf_core.Rand_dsf.run ~rng:(rng 3) inst).Dsf_core.Rand_dsf.solution );
      ( "khan",
        (Dsf_core.Khan_etal.run ~rng:(rng 3) inst)
          .Dsf_core.Khan_etal.solution );
      "moat", (Dsf_core.Moat.run inst).Dsf_core.Moat.solution;
    ]

(* ------------------------------------------------------------------- Io *)

let test_io_roundtrip_fixed () =
  let inst = random_instance 5 in
  let back = Io.roundtrip_ic inst in
  check Alcotest.(array int) "labels survive" inst.Instance.labels
    back.Instance.labels;
  check Alcotest.int "n survives" (Graph.n inst.Instance.graph)
    (Graph.n back.Instance.graph);
  check Alcotest.int "m survives" (Graph.m inst.Instance.graph)
    (Graph.m back.Instance.graph)

let test_io_parse_cr () =
  let text = "n 3\nedge 0 1 2\nedge 1 2 3\nrequest 0 2\n" in
  match Io.parse_string text with
  | Io.Cr cr ->
      check Alcotest.(list int) "request list" [ 2 ] cr.Instance.requests.(0)
  | _ -> Alcotest.fail "expected CR"

let test_io_parse_plain_and_comments () =
  let text = "# a comment\nn 2\nedge 0 1 5 # trailing comment\n\n" in
  match Io.parse_string text with
  | Io.Plain g -> check Alcotest.int "edge parsed" 1 (Graph.m g)
  | _ -> Alcotest.fail "expected plain graph"

let test_io_errors () =
  let expect_error text =
    match Io.parse_string text with
    | exception Io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_error "edge 0 1 2\n";
  (* missing n *)
  expect_error "n 2\nedge 0 1 x\n";
  (* bad integer *)
  expect_error "n 2\nfoo 1 2\n";
  (* unknown directive *)
  expect_error "n 2\nedge 0 1 1\nlabel 0 0\nrequest 0 1\n"
  (* mixed *)

let test_io_error_lines () =
  let expect_line name line msg text =
    match Io.parse_string text with
    | exception Io.Parse_error (l, m) ->
        check Alcotest.(pair int string) name (line, msg) (l, m)
    | _ -> Alcotest.fail (name ^ ": expected Parse_error")
  in
  expect_line "self-loop" 3 "Graph.make: self-loop"
    "n 3\nedge 0 1 2\nedge 1 1 2\n";
  expect_line "duplicate" 4 "Graph.make: duplicate edge"
    "n 3\n# comment\nedge 0 1 2\nedge 1 0 5\n";
  expect_line "out of range" 2 "Graph.make: endpoint out of range"
    "n 3\nedge 0 7 2\nedge 1 1 2\n";
  expect_line "weight" 3 "Graph.make: non-positive weight"
    "n 3\nedge 0 1 2\nedge 1 2 0\n";
  expect_line "n" 2 "n must be positive" "\nn 0\n";
  expect_line "negative n" 1 "n must be positive" "n -5\nn 3\nedge 0 1 1\n";
  expect_line "second n" 2 "duplicate n line" "n 3\nn 3\n";
  (* Rejected on its line before anything is sized by it. *)
  expect_line "n bound" 1 "n 99999999999 exceeds the bound 16777216"
    "n 99999999999\nedge 0 1 1\n";
  expect_line "edge arity" 2 "edge needs 3 integers (u v w), got 2"
    "n 2\nedge 0 1\n";
  expect_line "label arity" 3 "label needs 2 integers (v l), got 1"
    "n 2\nedge 0 1 1\nlabel 0\n";
  expect_line "n arity" 1 "n needs 1 integer (n), got 0" "n\n";
  expect_line "label twice" 5 "node 0 already labelled at line 4"
    "n 3\nedge 0 1 1\nedge 1 2 1\nlabel 0 0\nlabel 0 1\nlabel 2 1\n";
  expect_line "label node" 4 "label node out of range"
    "n 2\nedge 0 1 1\nlabel 0 0\nlabel 5 0\nlabel 9 0\n";
  expect_line "negative label" 3 "labels must be non-negative"
    "n 2\nedge 0 1 1\nlabel 0 -1\n";
  expect_line "request node" 3 "request node out of range"
    "n 2\nedge 0 1 1\nrequest 0 2\nrequest 3 0\n";
  expect_line "mixed" 4 "cannot mix label and request lines"
    "n 2\nedge 0 1 1\nlabel 0 0\nrequest 0 1\nlabel 1 0\n";
  expect_line "bad integer" 2 "expected integer, got \"x\""
    "n 2\nedge 0 1 x\n";
  (* The edge that takes the running total past the bound is at fault. *)
  let bound = Graph.max_total_weight in
  expect_line "weight bound" 4
    (Printf.sprintf "total edge weight exceeds the bound 2^50 = %d" bound)
    (Printf.sprintf "n 4\nedge 0 1 %d\nedge 1 2 5\nedge 2 3 8\n" (bound - 12))

let test_io_solution_roundtrip () =
  let inst = random_instance 6 in
  let g = inst.Instance.graph in
  let sol = Mst.kruskal g in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Io.print_solution ppf g sol;
  Format.pp_print_flush ppf ();
  (match Io.parse_solution g (Buffer.contents buf) with
  | Ok back -> check Alcotest.(array bool) "solution roundtrip" sol back
  | Error (_, e) -> Alcotest.fail e)

let test_io_solution_errors () =
  let g = Gen.path 3 in
  let expect_error name line msg text =
    match Io.parse_solution g text with
    | Error e -> check Alcotest.(pair int string) name (line, msg) e
    | Ok _ -> Alcotest.fail (name ^ " must be rejected")
  in
  expect_error "non-edge" 1 "no edge 0-2" "0 2\n";
  expect_error "bad integers" 2 "bad endpoints" "# ok\n0 abc\n";
  expect_error "out of range" 2 "bad endpoints" "0 1\n9 9\n";
  expect_error "arity" 1 "expected \"u v\"" "0 1 2\n";
  match Io.parse_solution g "# only a comment\n0 1\n" with
  | Ok sol -> check Alcotest.int "one edge" 1 (Array.fold_left (fun a b -> if b then a + 1 else a) 0 sol)
  | Error (_, e) -> Alcotest.fail e

let prop_io_roundtrip =
  QCheck.Test.make ~name:"Io roundtrip preserves instances" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let inst = random_instance seed in
      let back = Io.roundtrip_ic inst in
      back.Instance.labels = inst.Instance.labels
      && Graph.m back.Instance.graph = Graph.m inst.Instance.graph
      && Dsf_graph.Mst.weight back.Instance.graph
         = Dsf_graph.Mst.weight inst.Instance.graph)

(* ----------------------------------------------------------------- Params *)

let test_params_count_nodes () =
  let g = Gen.grid ~rows:4 ~cols:5 in
  let ledger = Dsf_congest.Ledger.create () in
  let env = { Dsf_congest.Sim.default_env with ledger = Some ledger } in
  let n = Dsf_congest.Params.count_nodes ~env g in
  check Alcotest.int "n" 20 n;
  Alcotest.(check bool) "rounds ~ D" true
    (Dsf_congest.Ledger.simulated ledger <= 4 * 7)

let test_params_diameter_bound () =
  let g = Gen.path 12 in
  let bound = Dsf_congest.Params.diameter_upper_bound g in
  let d = Paths.diameter_unweighted g in
  Alcotest.(check bool) "sandwiched" true (bound >= d && bound <= 2 * d)

let test_params_estimate_s () =
  let g = Gen.path 20 in
  let est = Dsf_congest.Params.estimate ~cap:100 g in
  check Alcotest.int "n by convergecast" 20 est.Dsf_congest.Params.n;
  (match est.Dsf_congest.Params.s with
  | Some s -> Alcotest.(check bool) "close to s" true (s >= 19 && s <= 25)
  | None -> Alcotest.fail "should stabilize");
  (* The max-id root is an end of the unit-weight path: its eccentricity
     is 19 = WD, and the bound is twice it. *)
  check Alcotest.int "WD bound = 2 ecc(root)" 38
    est.Dsf_congest.Params.wd_bound;
  (* An exceeded run still counts its rounds: all cap + 1 of them, after
     the BFS and the count, and before the WD bound's aggregate and
     broadcast. *)
  let ledger = Dsf_congest.Ledger.create () in
  let env = { Dsf_congest.Sim.default_env with ledger = Some ledger } in
  let tel = Dsf_congest.Telemetry.create () in
  let est =
    Dsf_congest.Params.estimate
      ~env:{ env with Dsf_congest.Sim.telemetry = Some tel }
      ~cap:5 g
  in
  (match est.Dsf_congest.Params.s with
  | None -> ()
  | Some _ -> Alcotest.fail "cap 5 must be exceeded on a 20-path");
  (match Dsf_congest.Telemetry.find tel [ "bellman_ford" ] with
  | Some span ->
      check Alcotest.int "aborted run counted" 6
        span.Dsf_congest.Telemetry.rounds
  | None -> Alcotest.fail "no bellman_ford span");
  (* Without a stabilized run the bound is min(n - 1, 2 height) times the
     largest weight: 19 x 1. *)
  check Alcotest.int "WD bound from the tree" 19
    est.Dsf_congest.Params.wd_bound;
  check Alcotest.int "ledger = engine rounds"
    (Dsf_util.Metrics.counter_value (Dsf_congest.Telemetry.metrics tel)
       "sim/rounds")
    (Dsf_congest.Ledger.simulated ledger)

let test_params_regime () =
  (* Star: s = 2 <= sqrt n -> small regime. *)
  let star = Gen.star 30 in
  if (Dsf_congest.Params.regime star).Dsf_congest.Params.s = None then
    Alcotest.fail "star should be small-s";
  (* Long path: s = n - 1 > sqrt n -> large regime. *)
  let path = Gen.path 30 in
  if (Dsf_congest.Params.regime path).Dsf_congest.Params.s <> None then
    Alcotest.fail "path should be large-s"

let suites =
  [
    ( "metamorphic",
      [
        qtest prop_weight_scaling;
        qtest prop_parallel_heavy_edge_harmless;
        qtest prop_label_renaming_invariant;
        qtest prop_extra_singleton_harmless;
        qtest prop_merging_components_weakly_increases;
        qtest prop_all_algorithms_agree_on_forced_path;
        Alcotest.test_case "all algorithms at the weight bound" `Quick
          test_all_algorithms_at_weight_bound;
      ] );
    ( "graph.io",
      [
        Alcotest.test_case "roundtrip" `Quick test_io_roundtrip_fixed;
        Alcotest.test_case "parse CR" `Quick test_io_parse_cr;
        Alcotest.test_case "plain + comments" `Quick test_io_parse_plain_and_comments;
        Alcotest.test_case "errors" `Quick test_io_errors;
        Alcotest.test_case "error line numbers" `Quick test_io_error_lines;
        Alcotest.test_case "solution roundtrip" `Quick test_io_solution_roundtrip;
        Alcotest.test_case "solution errors" `Quick test_io_solution_errors;
        qtest prop_io_roundtrip;
      ] );
    ( "congest.params",
      [
        Alcotest.test_case "count nodes" `Quick test_params_count_nodes;
        Alcotest.test_case "diameter bound" `Quick test_params_diameter_bound;
        Alcotest.test_case "estimate s" `Quick test_params_estimate_s;
        Alcotest.test_case "regime" `Quick test_params_regime;
      ] );
  ]
