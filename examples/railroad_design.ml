(* Railroad design (the problem's historical framing): towns on a map, a
   list of town pairs that demand a rail connection, tracks cost their
   length.  Demands arrive as *connection requests* (DSF-CR); the example
   shows the Lemma 2.3 transformation to input components running as a real
   distributed protocol, then solves and prices the network.

   Run with: dune exec examples/railroad_design.exe [-- seed] *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  let rng = Dsf_util.Rng.create seed in
  let n = 60 in
  (* Towns scattered on the map; candidate tracks between nearby towns. *)
  let g = Gen.random_geometric rng ~n ~radius:0.25 ~max_w:50 in
  (* Six connection demands between random towns. *)
  let requests = Array.make n [] in
  let demands =
    List.init 6 (fun i ->
        let a = Dsf_util.Rng.int rng n in
        let b = Dsf_util.Rng.int rng n in
        ignore i;
        a, b)
    |> List.filter (fun (a, b) -> a <> b)
  in
  List.iter (fun (a, b) -> requests.(a) <- b :: requests.(a)) demands;
  let cr = Instance.make_cr g requests in
  Format.printf "Map: %d towns, %d candidate tracks@." n (Graph.m g);
  List.iter (fun (a, b) -> Format.printf "  demand: town %d <-> town %d@." a b) demands;

  (* Lemma 2.3: convert requests to input components, distributively. *)
  let tel = Dsf_congest.Telemetry.create () in
  let inst =
    Dsf_core.Transform.cr_to_ic
      ~env:{ Dsf_congest.Sim.default_env with telemetry = Some tel }
      cr
  in
  (* Span counts are exclusive, so the transform's cost is its subtree's. *)
  let rec sum f (s : Dsf_congest.Telemetry.span) =
    List.fold_left (fun acc c -> acc + sum f c) (f s) s.children
  in
  let span = Option.get (Dsf_congest.Telemetry.find tel [ "cr_to_ic" ]) in
  Format.printf
    "@.Lemma 2.3 transform: %d rounds, %d messages -> %d input components@."
    (sum (fun s -> s.rounds) span)
    (sum (fun s -> s.messages) span)
    (Instance.component_count inst);
  List.iter
    (fun (lbl, towns) ->
      Format.printf "  component %d: towns %s@." lbl
        (String.concat ", " (List.map string_of_int towns)))
    (Instance.components inst);

  (* Build the railway with the deterministic 2-approximation. *)
  let det = Dsf_core.Det_dsf.run inst in
  Format.printf "@.Railway built: total track length %d@."
    det.Dsf_core.Det_dsf.weight;
  Format.printf "Tracks laid:@.";
  List.iter
    (fun (e : Graph.edge) ->
      Format.printf "  town %d -- town %d (length %d)@." e.u e.v e.w)
    (Graph.edge_list_of_set g det.Dsf_core.Det_dsf.solution);
  (* Every demand is served. *)
  assert (Instance.cr_is_feasible cr det.Dsf_core.Det_dsf.solution);
  Format.printf "@.All demands verified served.@.";
  Format.printf
    "Certified: any railway serving these demands needs length >= %s@."
    (Dsf_core.Frac.to_string det.Dsf_core.Det_dsf.dual)
