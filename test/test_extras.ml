(* Tests for the supporting modules added around the core reproduction:
   sequential upcast (ablation baseline), communication traces, DOT export,
   extra generators (clustered, broom), the unified Solver front end, and
   the st-path hard family. *)

open Dsf_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* ------------------------------------------------------ upcast_sequential *)

let test_seq_upcast_delivers () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let tree, _ = Dsf_congest.Bfs.build g ~root:0 in
  let items v = [ v; v + 10 ] in
  let got, _ =
    Dsf_congest.Tree_ops.upcast_sequential g ~tree ~items ~bits:(fun _ -> 8)
  in
  check Alcotest.int "all items" 18 (List.length got);
  List.iter
    (fun v -> Alcotest.(check bool) "contains" true (List.mem v got))
    (List.init 9 Fun.id)

let test_seq_upcast_no_pipelining () =
  let depth = 20 and nitems = 10 in
  let g = Gen.path (depth + 1) in
  let tree, _ = Dsf_congest.Bfs.build g ~root:0 in
  let items v = if v = depth then List.init nitems Fun.id else [] in
  let _, seq =
    Dsf_congest.Tree_ops.upcast_sequential g ~tree ~items ~bits:(fun _ -> 8)
  in
  let _, pipe = Dsf_congest.Tree_ops.upcast g ~tree ~items ~bits:(fun _ -> 8) in
  Alcotest.(check bool) "sequential ~ depth*items" true
    (seq.Dsf_congest.Sim.rounds >= depth * (nitems - 1));
  Alcotest.(check bool) "pipelined ~ depth+items" true
    (pipe.Dsf_congest.Sim.rounds <= depth + nitems + 4)

(* ------------------------------------------------------------------ Trace *)

let test_trace_counts () =
  let g = Gen.path 6 in
  let trace = Dsf_congest.Trace.create () in
  let _, stats =
    Dsf_congest.Bfs.build ~observer:(Dsf_congest.Trace.observer trace) g
      ~root:0
  in
  check Alcotest.int "messages match sim stats" stats.Dsf_congest.Sim.messages
    (Dsf_congest.Trace.messages trace);
  check Alcotest.int "bits match sim stats" stats.Dsf_congest.Sim.total_bits
    (Dsf_congest.Trace.bits trace)

let test_trace_per_edge () =
  let g = Gen.path 3 in
  let trace = Dsf_congest.Trace.create () in
  ignore
    (Dsf_congest.Bellman_ford.sssp ~observer:(Dsf_congest.Trace.observer trace)
       g ~src:0);
  Alcotest.(check bool) "edge 0->1 carried bits" true
    (Dsf_congest.Trace.bits_between trace ~src:0 ~dst:1 > 0);
  let hottest = Dsf_congest.Trace.hottest_edges trace 2 in
  check Alcotest.int "top-2 requested" 2 (List.length hottest);
  (match hottest with
  | (_, a) :: (_, b) :: _ -> Alcotest.(check bool) "descending" true (a >= b)
  | _ -> Alcotest.fail "expected 2 entries")

let test_trace_nesting_chains () =
  (* One trace threaded through successive runs accumulates all of them:
     it equals the separate per-run traces added up, edge by edge. *)
  let g = Gen.path 4 in
  let traced run =
    let t = Dsf_congest.Trace.create () in
    let stats = run (Dsf_congest.Trace.observer t) in
    (t, stats)
  in
  let bfs observer = snd (Dsf_congest.Bfs.build ~observer g ~root:0) in
  let sssp observer = snd (Dsf_congest.Bellman_ford.sssp ~observer g ~src:0) in
  let t_bfs, s_bfs = traced bfs and t_sssp, s_sssp = traced sssp in
  let whole, _ =
    traced (fun observer -> ignore (bfs observer); sssp observer)
  in
  let bits = Dsf_congest.Trace.bits in
  check Alcotest.int "outer sees the same traffic"
    (bits t_bfs + bits t_sssp) (bits whole);
  check Alcotest.int "bits match sim stats"
    (s_bfs.Dsf_congest.Sim.total_bits + s_sssp.Dsf_congest.Sim.total_bits)
    (bits whole);
  check Alcotest.int "messages add up"
    (Dsf_congest.Trace.messages t_bfs + Dsf_congest.Trace.messages t_sssp)
    (Dsf_congest.Trace.messages whole);
  for src = 0 to 3 do
    for dst = 0 to 3 do
      check Alcotest.int "per-edge bits add up"
        (Dsf_congest.Trace.bits_between t_bfs ~src ~dst
        + Dsf_congest.Trace.bits_between t_sssp ~src ~dst)
        (Dsf_congest.Trace.bits_between whole ~src ~dst)
    done
  done

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
  Alcotest.(check bool) "has rounds" true (rep.Dsf_core.Solver.rounds_simulated > 0);
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
      Dsf_core.Solver.Rand { repetitions = 2; seed = 5 };
      Dsf_core.Solver.Khan_baseline { repetitions = 2; seed = 5 };
      Dsf_core.Solver.Centralized_moat;
    ]

let test_solver_compare_all_sorted () =
  let inst = sample_instance 33 in
  let reports = Dsf_core.Solver.compare_all inst in
  check Alcotest.int "four algorithms" 4 (List.length reports);
  let weights = List.map (fun r -> r.Dsf_core.Solver.weight) reports in
  check Alcotest.(list int) "ascending" (List.sort compare weights) weights

let test_solver_cr () =
  let g = Gen.path 8 in
  let requests = Array.make 8 [] in
  requests.(0) <- [ 7 ];
  let cr = Instance.make_cr g requests in
  let rep = Dsf_core.Solver.solve_cr Dsf_core.Solver.Det cr in
  check Alcotest.int "path weight" 7 rep.Dsf_core.Solver.weight;
  Alcotest.(check bool) "transform rounds included" true
    (rep.Dsf_core.Solver.rounds_simulated > 7)

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
    ( "congest.trace",
      [
        Alcotest.test_case "counts" `Quick test_trace_counts;
        Alcotest.test_case "per-edge" `Quick test_trace_per_edge;
        Alcotest.test_case "nesting chains" `Quick test_trace_nesting_chains;
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
      ] );
    ( "lower_bound.st_hard",
      [ Alcotest.test_case "structure + solve" `Quick test_st_hard_structure ] );
  ]
