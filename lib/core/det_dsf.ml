module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find
module Sim = Dsf_congest.Sim
module Bfs = Dsf_congest.Bfs
module Tree_ops = Dsf_congest.Tree_ops
module Pipeline = Dsf_congest.Pipeline
module Ledger = Dsf_congest.Ledger
module Bitsize = Dsf_util.Bitsize
module C = Moat_common

type merge_info = {
  mu_total : Frac.t;
  mu_increment : Frac.t;
  terminals : int * int;
  phase : int;
}

type result = {
  solution : bool array;
  weight : int;
  dual : Frac.t;
  merges : merge_info list;
  phase_count : int;
  ledger : Ledger.t;
}

(* Candidate-merge key: ordered by growth-to-merge, then terminal pair, then
   inducing edge (the paper's lexicographic tie-breaking). *)
type ckey = { mu : Frac.t; pair : int * int; eid : int }

let ckey_cmp a b =
  let c = Frac.compare a.mu b.mu in
  if c <> 0 then c
  else
    let c = Dsf_util.Intmath.compare_pair a.pair b.pair in
    if c <> 0 then c else Int.compare a.eid b.eid

let run ?telemetry ?flat:_ ?jobs:_ ?chaos inst0 =
  let network =
    Option.fold chaos ~none:Sim.Lossless ~some:(fun c -> Sim.Chaos c)
  in
  let ledger = Ledger.create () in
  let env =
    { Sim.default_env with telemetry; ledger = Some ledger; network }
  in
  let tspan name f = Sim.span env name f in
  let g = inst0.Instance.graph in
  (* The run's one BFS tree: every convergecast and broadcast runs on it. *)
  let tree = Bfs.build ~env g ~root:(Bfs.max_id_root g) in
  let inst = Transform.minimalize ~env ~tree inst0 in
  let n = Graph.n g in
  let m = Graph.m g in
  (* Algorithm-1 moat state, replicated: after the setup broadcast every
     node can maintain it deterministically from the per-phase merge
     broadcasts, so we keep a single copy. *)
  let ms = C.create inst in
  let t = Array.length ms.C.terms in
  if t = 0 then
    {
      solution = Array.make m false;
      weight = 0;
      dual = Frac.zero;
      merges = [];
      phase_count = 0;
      ledger;
    }
  else begin
    (* ---- Setup: make all (terminal, label) pairs global. ---- *)
    tspan "setup" (fun () ->
        let term_items v =
          if inst.Instance.labels.(v) >= 0 then
            [ v, inst.Instance.labels.(v) ]
          else []
        in
        let pair_bits =
          let b = 2 * Bitsize.id_bits ~n in
          fun (_, _) -> b
        in
        let collected =
          Tree_ops.upcast ~env g ~tree ~items:term_items ~bits:pair_bits
        in
        Tree_ops.broadcast ~env g ~tree ~items:collected ~bits:pair_bits);
    (* ---- Per-node region state. ---- *)
    let reg = Region_bf.regions ms in
    let accepted_all = ref [] in
    (* terminal-index pairs, newest first *)
    let merges = ref [] in
    let dual = ref Frac.zero in
    let phase = ref 0 in
    let key_bits =
      let ids = 4 * Bitsize.id_bits ~n in
      fun (it : ckey Pipeline.item) -> Frac.bits it.Pipeline.key.mu + ids
    in
    while C.exists_active ms do
      tspan "phase" (fun () ->
        incr phase;
        let j = !phase in
        (* a. Terminal decomposition (Lemma 4.8). *)
        let ph = Region_bf.decompose ~env g reg ms in
        let towner = Region_bf.owner_at reg ph in
        let toffset = Region_bf.offset_at reg ph in
        (* b. Candidate merges at region boundaries (Definition 4.11). *)
        Dsf_congest.Exchange.all_neighbors ~env g
          ~payload_bits:((2 * Bitsize.id_bits ~n) + 2);
        let items u =
          if not ph.Region_bf.growing.(u) then []
          else begin
            let ou = towner u and du = toffset u in
            Array.to_list (Graph.adj g u)
            |> List.filter_map (fun (nb, w, eid) ->
                   let onb = towner nb in
                   if onb < 0 || onb = ou then None
                   else begin
                     let ti = ms.C.tindex.(ou) and tj = ms.C.tindex.(onb) in
                     if Uf.same ms.C.moats ti tj then None
                     else begin
                       let total = Frac.add (Frac.add du (Frac.of_int w)) (toffset nb) in
                       let mu =
                         if C.active ms tj then Frac.half total else total
                       in
                       let pair = Int.min ou onb, Int.max ou onb in
                       Some { Pipeline.key = { mu; pair; eid }; a = ti; b = tj }
                     end
                   end)
          end
        in
        let pre =
          List.map (fun ((a, b), _) -> a, b) !accepted_all
        in
        (* c. Pipelined filtered collection with early stop (Cor. 4.16). *)
        let scratch = C.copy ms in
        let processed = ref 0 in
        let stop_found = ref false in
        let stop_at_root accepted =
          if !stop_found then true
          else begin
            let fresh = List.filteri (fun i _ -> i >= !processed) accepted in
            List.iter
              (fun (it : ckey Pipeline.item) ->
                incr processed;
                if not !stop_found then
                  if C.merge_alg1 scratch it.Pipeline.a it.Pipeline.b then
                    stop_found := true)
              fresh;
            !stop_found
          end
        in
        let accepted =
          Pipeline.filtered_upcast ~env ~stop_at_root g ~tree ~vn:t ~pre
            ~items ~cmp:ckey_cmp
            ~bits:key_bits
        in
        Tree_ops.broadcast ~env g ~tree
          ~items:[ () ] ~bits:(fun () -> 1);
        (* Truncate at the first activity-changing merge. *)
        let phase_merges =
          let rec take acc probe = function
            | [] -> None
            | (it : ckey Pipeline.item) :: rest ->
                if C.merge_alg1 probe it.Pipeline.a it.Pipeline.b then
                  Some (List.rev (it :: acc))
                else take (it :: acc) probe rest
          in
          match take [] (C.copy ms) accepted with
          | Some its -> its
          | None ->
              invalid_arg
                "Det_dsf: phase produced no activity-changing merge (bug or \
                 disconnected component)"
        in
        (* d. Broadcast the phase's merges; everyone updates locally. *)
        Tree_ops.broadcast ~env g ~tree
          ~items:phase_merges ~bits:key_bits;
        let mu_phase = (List.nth phase_merges (List.length phase_merges - 1)).Pipeline.key.mu in
        let mu_prev = ref Frac.zero in
        List.iter
          (fun (it : ckey Pipeline.item) ->
            let inc = Frac.sub it.Pipeline.key.mu !mu_prev in
            mu_prev := it.Pipeline.key.mu;
            let count = C.active_count ms in
            dual := Frac.add !dual (Frac.mul_int inc count);
            ignore (C.merge_alg1 ms it.Pipeline.a it.Pipeline.b);
            accepted_all := ((it.Pipeline.a, it.Pipeline.b), it.Pipeline.key) :: !accepted_all;
            merges :=
              {
                mu_total = it.Pipeline.key.mu;
                mu_increment = inc;
                terminals = (ms.C.terms.(it.Pipeline.a), ms.C.terms.(it.Pipeline.b));
                phase = j;
              }
              :: !merges)
          phase_merges;
        (* Region freeze: nodes whose reduced distance is within the phase's
           growth join (and freeze into) their owner's region. *)
        Region_bf.freeze reg ph mu_phase)
    done;
    (* ---- Final selection: minimal candidate subforest + token flood. ---- *)
    let solution =
      tspan "final" (fun () ->
          let solution =
            Select.merge_paths ~env g ~labels:ms.C.init_label
              ~parent:reg.Region_bf.parents
              (List.rev_map (fun (pair, key) -> pair, key.eid) !accepted_all)
          in
          (* Merge-level minimality (F_min) is not quite edge-level
             minimality: two merge paths can overlap at a Steiner node,
             leaving a redundant bridge edge.  A final intra-tree
             label-propagation prune (the Appendix F.3 technique) removes
             those; its O(D + t + depth) rounds are charged. *)
          let solution = Instance.prune inst solution in
          Sim.charge env "final: edge-level prune (F.3 style)"
            (tree.Bfs.height + t);
          solution)
    in
    {
      solution;
      weight = Instance.solution_weight inst solution;
      dual = !dual;
      merges = List.rev !merges;
      phase_count = !phase;
      ledger;
    }
  end
