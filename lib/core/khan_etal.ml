module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Ledger = Dsf_congest.Ledger
module Sim = Dsf_congest.Sim
module Virtual_tree = Dsf_embed.Virtual_tree
module LR = Level_routing

type result = {
  solution : bool array;
  weight : int;
  ledger : Ledger.t;
  components_routed : int;
}

(* Route one component's labels through all tree levels, sequentially per
   level: holders climb toward their ancestors, the target concentrates the
   label at one holder (we keep the lowest-id holder — the baseline has no
   need for the backtrace subtlety since only one label is in flight). *)
let route_component ~env g vt ~label ~terminals =
  let f = Array.make (Graph.m g) false in
  let holders = ref terminals in
  for i = 0 to vt.Virtual_tree.levels do
    if List.length !holders > 1 then begin
      let origin_set = Hashtbl.create 8 in
      List.iter
        (fun v ->
          Hashtbl.replace origin_set v
            [ label, vt.Virtual_tree.ancestors.(v).(i) ])
        !holders;
      let origins v = Option.value ~default:[] (Hashtbl.find_opt origin_set v) in
      let rstates = LR.route_phase ~env g vt ~origins in
      Array.iter
        (fun st -> List.iter (fun eid -> f.(eid) <- true) st.LR.marked)
        rstates;
      (* New holders: the targets that received the label. *)
      let next = ref [] in
      Array.iteri
        (fun v st -> if st.LR.lhat <> [] then next := v :: !next)
        rstates;
      if !next <> [] then holders := !next
    end
  done;
  f

let one_run ~env rng g inst =
  let tree_rng = Dsf_util.Rng.split rng 0 in
  (* The input's weight bound, which every node knows, bounds WD.  Levels
     above the one whose balls cover the graph cost no rounds here:
     [route_component] stops once a component's labels meet at one
     holder, the top-ranked node.  So the baseline learns no WD. *)
  let vt =
    Virtual_tree.build ~env tree_rng ~wd_bound:Graph.max_total_weight g
  in
  let f = Array.make (Graph.m g) false in
  let comps = Instance.components inst in
  List.iter
    (fun (label, terminals) ->
      if List.length terminals >= 2 then begin
        let fc = route_component ~env g vt ~label ~terminals in
        Array.iteri (fun i b -> if b then f.(i) <- true) fc
      end)
    comps;
  f, List.length comps

let run ?telemetry ?(repetitions = 3) ~rng inst0 =
  let ledger = Ledger.create () in
  let env = { Sim.default_env with telemetry; ledger = Some ledger } in
  Sim.span env "khan_baseline" @@ fun () ->
  let inst = Transform.minimalize ~env inst0 in
  let g = inst.Instance.graph in
  let best = ref None in
  let routed = ref 0 in
  for rep = 1 to repetitions do
    let f, k = one_run ~env (Dsf_util.Rng.split rng rep) g inst in
    routed := k;
    let w = Graph.edge_set_weight g f in
    match !best with
    | Some (bw, _) when bw <= w -> ()
    | _ -> best := Some (w, f)
  done;
  let weight, solution =
    match !best with Some x -> x | None -> 0, Array.make (Graph.m g) false
  in
  { solution; weight; ledger; components_routed = !routed }
