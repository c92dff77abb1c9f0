(* VPN / streaming-multicast scenario (the paper's introduction motivates
   Steiner Forest with exactly this workload): a provider network hosts
   several tenant groups, each needing a connected overlay; the provider
   wants minimum total reserved capacity.

   We build a random geometric provider network, place k tenant groups in
   geographically coherent regions, and compare the paper's algorithms
   against the Khan et al. prior art on cost and round complexity.

   Run with: dune exec examples/vpn_multicast.exe [-- seed] *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance
module Ledger = Dsf_congest.Ledger

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 7
  in
  let rng = Dsf_util.Rng.create seed in
  let n = 120 in
  let g = Gen.random_geometric rng ~n ~radius:0.18 ~max_w:100 in
  let k = 5 and t = 20 in
  let labels = Gen.spread_labels rng g ~t ~k in
  let inst = Instance.make_ic g labels in
  let d, wd, s = Dsf_graph.Paths.parameters g in
  Format.printf
    "Provider network: n=%d m=%d D=%d WD=%d s=%d | %d tenant groups, %d sites@.@."
    n (Graph.m g) d wd s k t;
  List.iter
    (fun (lbl, sites) ->
      Format.printf "  group %d: sites %s@." lbl
        (String.concat ", " (List.map string_of_int sites)))
    (Instance.components inst);
  Format.printf "@.%-28s %10s %10s %12s %12s@." "algorithm" "cost" "ratio*"
    "rounds(sim)" "rounds(total)";
  let base = ref 0 in
  let row name weight ledger =
    if !base = 0 then base := weight;
    Format.printf "%-28s %10d %10.3f %12d %12d@." name weight
      (float_of_int weight /. float_of_int !base)
      (Ledger.simulated ledger) (Ledger.total ledger)
  in
  let det = Dsf_core.Det_dsf.run inst in
  row "Det_dsf (2-approx)" det.Dsf_core.Det_dsf.weight det.Dsf_core.Det_dsf.ledger;
  let sub = Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
  row "Det_sublinear (2.5-approx)" sub.Dsf_core.Det_sublinear.weight
    sub.Dsf_core.Det_sublinear.ledger;
  let rnd = Dsf_core.Rand_dsf.run ~rng:(Dsf_util.Rng.split rng 1) inst in
  row
    (Printf.sprintf "Rand_dsf (truncated=%b)" rnd.Dsf_core.Rand_dsf.truncated)
    rnd.Dsf_core.Rand_dsf.weight rnd.Dsf_core.Rand_dsf.ledger;
  let khan = Dsf_core.Khan_etal.run ~rng:(Dsf_util.Rng.split rng 2) inst in
  row "Khan et al. [14] baseline" khan.Dsf_core.Khan_etal.weight
    khan.Dsf_core.Khan_etal.ledger;
  Format.printf
    "@.(* ratio is relative to Det_dsf's cost; its dual certificate %s@.   proves every solution costs at least that much. *)@."
    (Dsf_core.Frac.to_string det.Dsf_core.Det_dsf.dual);
  (* Sanity: all outputs really connect every tenant group. *)
  assert (Instance.is_feasible inst det.Dsf_core.Det_dsf.solution);
  assert (Instance.is_feasible inst sub.Dsf_core.Det_sublinear.solution);
  assert (Instance.is_feasible inst rnd.Dsf_core.Rand_dsf.solution);
  assert (Instance.is_feasible inst khan.Dsf_core.Khan_etal.solution);
  Format.printf "@.All four outputs verified feasible.@."
