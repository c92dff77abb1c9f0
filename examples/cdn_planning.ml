(* CDN capacity planning, end to end: a backbone of regional clusters with
   expensive long-haul links; several content groups must each interconnect
   their replica sites.  The example exercises the whole toolkit:

   - the instance is serialized to the Io text format and re-read (as a
     deployment pipeline would),
   - every algorithm runs via the Solver front end,
   - the winner is re-run with a flight recorder attached to find the
     hottest links,
   - the solution is exported as Graphviz DOT.

   Run with: dune exec examples/cdn_planning.exe [-- seed] *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance
module Solver = Dsf_core.Solver

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 11
  in
  let rng = Dsf_util.Rng.create seed in
  (* Backbone: 4 regions x 15 PoPs, cheap regional links, pricey long-haul. *)
  let g =
    Gen.clustered rng ~clusters:4 ~cluster_size:15 ~intra_extra:12 ~bridges:2
      ~intra_w:4 ~bridge_w:60
  in
  let n = Graph.n g in
  let labels = Gen.spread_labels rng g ~t:16 ~k:4 in
  let inst = Instance.make_ic g labels in
  Format.printf "backbone: %d PoPs, %d links; %d content groups, %d replicas@."
    n (Graph.m g)
    (Instance.component_count inst)
    (Instance.terminal_count inst);

  (* Round-trip through the deployment format. *)
  let file = Filename.temp_file "cdn" ".dsf" in
  let oc = open_out file in
  let ppf = Format.formatter_of_out_channel oc in
  Dsf_graph.Io.print_ic ppf inst;
  Format.pp_print_flush ppf ();
  close_out oc;
  let inst =
    match Dsf_graph.Io.parse_file file with
    | Dsf_graph.Io.Ic i -> i
    | _ -> failwith "unexpected file shape"
  in
  Format.printf "instance written to and re-read from %s@.@." file;

  (* Run the full algorithm portfolio. *)
  Format.printf "%-34s %8s %8s %10s@." "algorithm" "cost" "rounds" "certified";
  let algorithms =
    Solver.
      [
        Det;
        Det_sublinear { eps_num = 1; eps_den = 2 };
        Rand { repetitions = 3; rng = Dsf_util.Rng.create 1 };
        Khan_baseline { repetitions = 3; rng = Dsf_util.Rng.create 1 };
      ]
  in
  let reports = Solver.compare_all ~algorithms (Solver.Ic inst) in
  List.iter
    (fun (r : Solver.report) ->
      assert r.Solver.feasible;
      Format.printf "%-34s %8d %8d %10s@." r.Solver.algorithm r.Solver.weight
        (Option.fold r.Solver.ledger ~none:0 ~some:Dsf_congest.Ledger.total)
        (match r.Solver.dual_lower_bound with
        | Some d -> Printf.sprintf ">= %.0f" d
        | None -> "-"))
    reports;
  let best = List.hd reports in
  Format.printf "@.cheapest plan: %s at cost %d@." best.Solver.algorithm
    best.Solver.weight;

  (* Where does the coordination traffic concentrate?  Re-run the winner
     with a flight recorder on its telemetry and rank the links by the
     bits they carried. *)
  let winner =
    List.find (fun a -> Solver.name a = best.Solver.algorithm) algorithms
  in
  let recorder = Dsf_congest.Recorder.create () in
  ignore
    (Solver.solve_ic
       ~telemetry:(Dsf_congest.Telemetry.create ~recorder ())
       winner inst);
  Format.printf "@.%s re-run under a flight recorder:@.%a"
    best.Solver.algorithm
    (Dsf_congest.Recorder.pp_hot_edges ~limit:5)
    (Dsf_congest.Recorder.(analyze (to_log recorder)));

  (* Export the plan for the network team. *)
  let dot = Filename.temp_file "cdn" ".dot" in
  Dsf_graph.Dot.to_file dot
    (fun ppf () -> Dsf_graph.Dot.instance ~solution:best.Solver.solution ppf inst)
    ();
  Format.printf "@.DOT rendering written to %s@." dot;
  Sys.remove file
