(* Tests for the supporting modules added around the core reproduction:
   sequential upcast (ablation baseline), the flight log as message tap, DOT export,
   extra generators (clustered, broom), the unified Solver front end, and
   the st-path hard family. *)

open Dsf_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* ------------------------------------------------------ upcast_sequential *)

let test_seq_upcast_delivers () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let tree = Dsf_congest.Bfs.build g ~root:0 in
  let items v = [ v; v + 10 ] in
  let got =
    Dsf_congest.Tree_ops.upcast_sequential g ~tree ~items ~bits:(fun _ -> 8)
  in
  check Alcotest.int "all items" 18 (List.length got);
  List.iter
    (fun v -> Alcotest.(check bool) "contains" true (List.mem v got))
    (List.init 9 Fun.id)

let test_seq_upcast_no_pipelining () =
  let depth = 20 and nitems = 10 in
  let g = Gen.path (depth + 1) in
  let tree = Dsf_congest.Bfs.build g ~root:0 in
  let items v = if v = depth then List.init nitems Fun.id else [] in
  let _, seq =
    Dsf_congest.Sim.measure (fun env ->
        Dsf_congest.Tree_ops.upcast_sequential ~env g ~tree ~items
          ~bits:(fun _ -> 8))
  in
  let _, pipe =
    Dsf_congest.Sim.measure (fun env ->
        Dsf_congest.Tree_ops.upcast ~env g ~tree ~items ~bits:(fun _ -> 8))
  in
  Alcotest.(check bool) "sequential ~ depth*items" true
    (seq.Dsf_congest.Sim.rounds >= depth * (nitems - 1));
  Alcotest.(check bool) "pipelined ~ depth+items" true
    (pipe.Dsf_congest.Sim.rounds <= depth + nitems + 4)

(* ------------------------------------------------------------- send log *)

(* The flight recorder is the message tap: its [Send] events carry
   every message a run sends. *)
let bits_of sends = List.fold_left (fun acc (_, _, b) -> acc + b) 0 sends

let test_log_counts () =
  let g = Gen.path 6 in
  let r, env = Flight.env () in
  let _, stats =
    Dsf_congest.Sim.measure ~env (fun env ->
        Dsf_congest.Bfs.build ~env g ~root:0)
  in
  let sends = Flight.sends r in
  check Alcotest.int "messages match sim stats" stats.Dsf_congest.Sim.messages
    (List.length sends);
  check Alcotest.int "bits match sim stats" stats.Dsf_congest.Sim.total_bits
    (bits_of sends)

let test_log_threads_runs () =
  (* One env's recorder threaded through successive runs sees all of
     them: its sends are the separate per-run logs' sends, concatenated
     in run order. *)
  let g = Gen.path 4 in
  let bfs env =
    snd
      (Dsf_congest.Sim.measure ~env (fun env ->
           Dsf_congest.Bfs.build ~env g ~root:0))
  in
  let sssp env =
    snd
      (Dsf_congest.Sim.measure ~env (fun env ->
           Dsf_congest.Bellman_ford.sssp ~env g ~src:0))
  in
  let r_bfs, env_bfs = Flight.env () and r_sssp, env_sssp = Flight.env () in
  let s_bfs = bfs env_bfs and s_sssp = sssp env_sssp in
  let r_whole, env_whole = Flight.env () in
  ignore (bfs env_whole);
  ignore (sssp env_whole);
  let whole = Flight.sends r_whole in
  check Alcotest.(list (triple int int int)) "outer sees the same traffic"
    (Flight.sends r_bfs @ Flight.sends r_sssp)
    whole;
  check Alcotest.int "bits match sim stats"
    (s_bfs.Dsf_congest.Sim.total_bits + s_sssp.Dsf_congest.Sim.total_bits)
    (bits_of whole)

(* -------------------------------------------------------------------- Dot *)

let test_dot_graph_output () =
  let g = Graph.make ~n:3 [ 0, 1, 5; 1, 2, 7 ] in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Dot.graph ppf g;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "graph header" true (contains "graph G {");
  Alcotest.(check bool) "edge 0--1" true (contains "0 -- 1");
  Alcotest.(check bool) "weight label" true (contains "label=\"5\"")

let test_dot_instance_output () =
  let g = Gen.path 3 in
  let inst = Instance.make_ic g [| 0; -1; 0 |] in
  let solution = Array.make (Graph.m g) true in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Dot.instance ~solution ppf inst;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "terminal box" true (contains "shape=box");
  Alcotest.(check bool) "solution edge bold" true (contains "penwidth=3")

(* --------------------------------------------------------- new generators *)

let test_gen_clustered () =
  let g =
    Gen.clustered (rng 5) ~clusters:4 ~cluster_size:10 ~intra_extra:5
      ~bridges:2 ~intra_w:3 ~bridge_w:30
  in
  check Alcotest.int "n" 40 (Graph.n g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Bridges are heavier than intra-cluster edges. *)
  let cluster_of v = v / 10 in
  Array.iter
    (fun (e : Graph.edge) ->
      if cluster_of e.u = cluster_of e.v then
        Alcotest.(check bool) "intra light" true (e.w <= 3)
      else Alcotest.(check bool) "bridge heavy" true (e.w >= 15))
    (Graph.edges g)

let test_gen_broom () =
  let g, labels = Gen.broom ~tail:10 ~arm_lengths:[ 1; 2; 3 ] in
  (* hub + 10 tail + 2*(1+2+3) arm nodes *)
  check Alcotest.int "n" 23 (Graph.n g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  let inst = Instance.make_ic g labels in
  check Alcotest.int "k" 3 (Instance.component_count inst);
  check Alcotest.int "t" 6 (Instance.terminal_count inst);
  (* Each component's two terminals are at distance 2*length via the hub. *)
  List.iter
    (fun (lbl, members) ->
      match members with
      | [ a; b ] ->
          let dist, _ = Paths.dijkstra g ~src:a in
          check Alcotest.int
            (Printf.sprintf "component %d distance" lbl)
            (2 * (lbl + 1))
            dist.(b)
      | _ -> Alcotest.fail "expected pairs")
    (Instance.components inst)

let prop_broom_det_correct =
  QCheck.Test.make ~name:"broom instances solved exactly by Det_dsf" ~count:8
    QCheck.(int_range 1 6)
    (fun k ->
      let g, labels =
        Gen.broom ~tail:20 ~arm_lengths:(List.init k (fun j -> j + 1))
      in
      let inst = Instance.make_ic g labels in
      let res = Dsf_core.Det_dsf.run inst in
      (* OPT connects each pair through the hub: sum of 2*(j+1). *)
      let opt = List.fold_left ( + ) 0 (List.init k (fun j -> 2 * (j + 2 - 1))) in
      Instance.is_feasible inst res.Dsf_core.Det_dsf.solution
      && res.Dsf_core.Det_dsf.weight = opt)

(* ----------------------------------------------------------------- Solver *)

let sample_instance seed =
  let r = rng seed in
  let g = Gen.random_connected r ~n:20 ~extra_edges:15 ~max_w:8 in
  let labels = Gen.random_labels r ~n:20 ~t:6 ~k:2 in
  Instance.make_ic g labels

let test_solver_det () =
  let inst = sample_instance 31 in
  let rep = Dsf_core.Solver.solve_ic Dsf_core.Solver.Det inst in
  Alcotest.(check bool) "feasible" true rep.Dsf_core.Solver.feasible;
  Alcotest.(check bool) "has dual" true (rep.Dsf_core.Solver.dual_lower_bound <> None);
  Alcotest.(check bool) "has rounds" true (Option.map Dsf_congest.Ledger.simulated rep.Dsf_core.Solver.ledger
     > Some 0);
  let det = Dsf_core.Det_dsf.run inst in
  check Alcotest.int "same as direct call" det.Dsf_core.Det_dsf.weight
    rep.Dsf_core.Solver.weight

let test_solver_all_algorithms () =
  let inst = sample_instance 32 in
  List.iter
    (fun algo ->
      let rep = Dsf_core.Solver.solve_ic algo inst in
      Alcotest.(check bool)
        (Dsf_core.Solver.name algo ^ " feasible")
        true rep.Dsf_core.Solver.feasible)
    [
      Dsf_core.Solver.Det;
      Dsf_core.Solver.Det_sublinear { eps_num = 1; eps_den = 2 };
      Dsf_core.Solver.Rand { repetitions = 2; rng = Dsf_util.Rng.create 5 };
      Dsf_core.Solver.Khan_baseline
        { repetitions = 2; rng = Dsf_util.Rng.create 5 };
      Dsf_core.Solver.Centralized_moat;
    ]

let test_solver_compare_all_sorted () =
  let inst = sample_instance 33 in
  let reports = Dsf_core.Solver.(compare_all (Ic inst)) in
  check Alcotest.int "four algorithms" 4 (List.length reports);
  let weights = List.map (fun r -> r.Dsf_core.Solver.weight) reports in
  check Alcotest.(list int) "ascending" (List.sort compare weights) weights

(* solve_cr's ledger holds the Lemma 2.3 transform's rounds and then the
   algorithm's: on a path, more than det's own 7; on dsf_cli's requests
   fixture, the [cr_to_ic] span's 22 and det's 76 simulated and 11
   charged, and compare_all counts them the same way. *)
let test_solver_cr () =
  let module Solver = Dsf_core.Solver in
  let module Telemetry = Dsf_congest.Telemetry in
  let simulated (r : Solver.report) =
    Option.map Dsf_congest.Ledger.simulated r.Solver.ledger
  in
  let g = Gen.path 8 in
  let requests = Array.make 8 [] in
  requests.(0) <- [ 7 ];
  let rep = Solver.solve_cr Solver.Det (Instance.make_cr g requests) in
  check Alcotest.int "path weight" 7 rep.Solver.weight;
  Alcotest.(check bool) "transform rounds included" true (simulated rep > Some 7);
  let cr =
    match Io.parse_file "fixtures/det_small_cr.dsf" with
    | Io.Cr cr -> cr
    | _ -> Alcotest.fail "det_small_cr.dsf is a requests file"
  in
  let tel = Telemetry.create () in
  let rep = Solver.solve_cr ~telemetry:tel Solver.Det cr in
  check Alcotest.(option int) "simulated" (Some 98) (simulated rep);
  check Alcotest.(option int) "charged" (Some 11)
    (Option.map Dsf_congest.Ledger.charged rep.Solver.ledger);
  let rec rounds (s : Telemetry.span) =
    List.fold_left (fun acc c -> acc + rounds c) s.Telemetry.rounds
      s.Telemetry.children
  in
  check Alcotest.(option int) "cr_to_ic span rounds" (Some 22)
    (Option.map rounds (Telemetry.find tel [ "cr_to_ic" ]));
  check Alcotest.(list (option int)) "compare_all" [ Some 98 ]
    (List.map simulated
       (Solver.compare_all ~algorithms:[ Solver.Det ] (Solver.Cr cr)));
  (* compare_all runs the transform once for all its algorithms, and each
     report's ledger still matches that algorithm's own solve_cr. *)
  let tel = Telemetry.create () in
  let reports = Solver.compare_all ~telemetry:tel (Solver.Cr cr) in
  check Alcotest.(option int) "one cr_to_ic span" (Some 1)
    (Option.map
       (fun (s : Telemetry.span) -> s.Telemetry.count)
       (Telemetry.find tel [ "cr_to_ic" ]));
  List.iter
    (fun algo ->
      let own = Solver.solve_cr algo cr in
      let mine =
        List.find (fun r -> r.Solver.algorithm = own.Solver.algorithm) reports
      in
      check Alcotest.(option (pair int int)) (own.Solver.algorithm ^ " ledger")
        (Option.map
           (fun l -> Dsf_congest.Ledger.(simulated l, charged l))
           own.Solver.ledger)
        (Option.map
           (fun l -> Dsf_congest.Ledger.(simulated l, charged l))
           mine.Solver.ledger))
    [
      Solver.Det;
      Solver.Det_sublinear { eps_num = 1; eps_den = 2 };
      Solver.Rand { repetitions = 3; rng = Dsf_util.Rng.create 1 };
      Solver.Khan_baseline { repetitions = 3; rng = Dsf_util.Rng.create 1 };
    ]

(* Solver sweeps the exact (D, WD, s) only for the algorithms that still
   read it.  Det leaves the graph's memo empty, so a probe's [compute]
   still runs; Det_sublinear, Rand and Khan_baseline find it filled, by a
   [paths.parameters] span. *)
let test_solver_sweeps_for_readers () =
  let module Solver = Dsf_core.Solver in
  let module Telemetry = Dsf_congest.Telemetry in
  let solve algo =
    let inst = sample_instance 34 in
    let tel = Telemetry.create () in
    ignore (Solver.solve ~telemetry:tel algo (Solver.Ic inst));
    let probed = ref false in
    ignore
      (Graph.params inst.Instance.graph ~compute:(fun _ ->
           probed := true;
           0, 0, 0));
    Telemetry.find tel [ "paths.parameters" ] <> None, not !probed
  in
  let swept = Alcotest.(pair bool bool) in
  check swept "det: no span, memo empty" (false, false) (solve Solver.Det);
  check swept "moat: no span, memo empty" (false, false)
    (solve Solver.Centralized_moat);
  List.iter
    (fun algo ->
      check swept (Solver.name algo ^ ": span, memo filled") (true, true)
        (solve algo))
    [
      Solver.Det_sublinear { eps_num = 1; eps_den = 2 };
      Solver.Rand { repetitions = 2; rng = Dsf_util.Rng.create 5 };
      Solver.Khan_baseline { repetitions = 2; rng = Dsf_util.Rng.create 5 };
    ]

(* ---------------------------------------------------------------- st_hard *)

let test_st_hard_structure () =
  let inst = Dsf_lower_bound.Gadgets.st_hard ~s:10 ~rho:3 in
  let g = inst.Instance.graph in
  check Alcotest.int "n = s + 2" 12 (Graph.n g);
  check Alcotest.int "D = 2" 2 (Paths.diameter_unweighted g);
  let _, _, s = Paths.parameters g in
  check Alcotest.int "s param" 10 s;
  check Alcotest.int "t" 2 (Instance.terminal_count inst);
  let res = Dsf_core.Det_dsf.run inst in
  check Alcotest.int "solves along the path" 10 res.Dsf_core.Det_dsf.weight

let suites =
  [
    ( "congest.upcast_sequential",
      [
        Alcotest.test_case "delivers" `Quick test_seq_upcast_delivers;
        Alcotest.test_case "no pipelining" `Quick test_seq_upcast_no_pipelining;
      ] );
    ( "congest.send_log",
      [
        Alcotest.test_case "counts" `Quick test_log_counts;
        Alcotest.test_case "threads successive runs" `Quick
          test_log_threads_runs;
      ] );
    ( "graph.dot",
      [
        Alcotest.test_case "graph output" `Quick test_dot_graph_output;
        Alcotest.test_case "instance output" `Quick test_dot_instance_output;
      ] );
    ( "graph.gen_extra",
      [
        Alcotest.test_case "clustered" `Quick test_gen_clustered;
        Alcotest.test_case "broom" `Quick test_gen_broom;
        qtest prop_broom_det_correct;
      ] );
    ( "core.solver",
      [
        Alcotest.test_case "det report" `Quick test_solver_det;
        Alcotest.test_case "all algorithms" `Quick test_solver_all_algorithms;
        Alcotest.test_case "compare_all sorted" `Quick test_solver_compare_all_sorted;
        Alcotest.test_case "CR front end" `Quick test_solver_cr;
        Alcotest.test_case "sweeps only for its readers" `Quick
          test_solver_sweeps_for_readers;
      ] );
    ( "lower_bound.st_hard",
      [ Alcotest.test_case "structure + solve" `Quick test_st_hard_structure ] );
  ]
