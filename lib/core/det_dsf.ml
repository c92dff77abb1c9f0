module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find
module Sim = Dsf_congest.Sim
module Bfs = Dsf_congest.Bfs
module Tree_ops = Dsf_congest.Tree_ops
module Pipeline = Dsf_congest.Pipeline
module Ledger = Dsf_congest.Ledger
module Bitsize = Dsf_util.Bitsize

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
  max_edge_round_bits : int;
}

(* Candidate-merge key: ordered by growth-to-merge, then terminal pair, then
   inducing edge (the paper's lexicographic tie-breaking). *)
type ckey = { mu : Frac.t; pair : int * int; eid : int }

let ckey_cmp a b =
  let c = Frac.compare a.mu b.mu in
  if c <> 0 then c else compare (a.pair, a.eid) (b.pair, b.eid)

(* Globally replicated Algorithm-1 state: after the setup broadcast every
   node can maintain this deterministically from the per-phase merge
   broadcasts, so we keep a single copy. *)
type gstate = {
  terms : int array;
  tindex : (int, int) Hashtbl.t;
  labels : int array;  (** per terminal index *)
  moats : Uf.t;
  label_uf : Uf.t;
  act : bool array;  (** per moat representative *)
  rad : Frac.t array;  (** per terminal index *)
}

let g_label gs ti = Uf.find gs.label_uf gs.labels.(ti)

let g_active gs ti = gs.act.(Uf.find gs.moats ti)

let g_lone_label gs ti =
  let rep = Uf.find gs.moats ti in
  let lbl = g_label gs ti in
  let lone = ref true in
  Array.iteri
    (fun tj _ ->
      if Uf.find gs.moats tj <> rep && g_label gs tj = lbl then lone := false)
    gs.terms;
  !lone

let g_active_moats gs =
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun ti _ ->
      let rep = Uf.find gs.moats ti in
      if gs.act.(rep) && not (Hashtbl.mem seen rep) then Hashtbl.add seen rep ())
    gs.terms;
  Hashtbl.length seen

let g_exists_active gs =
  let found = ref false in
  Array.iteri (fun ti _ -> if g_active gs ti then found := true) gs.terms;
  !found

let g_snapshot gs = Array.init (Array.length gs.terms) (fun ti -> g_active gs ti)

(* Apply one merge; returns whether some terminal's activity flipped. *)
let g_apply gs (a, b) =
  let before = g_snapshot gs in
  let la = g_label gs a and lb = g_label gs b in
  ignore (Uf.union gs.moats a b);
  if la <> lb then ignore (Uf.union gs.label_uf la lb);
  let rep = Uf.find gs.moats a in
  gs.act.(rep) <- not (g_lone_label gs a);
  before <> g_snapshot gs

let g_copy gs =
  {
    gs with
    moats = Uf.copy gs.moats;
    label_uf = Uf.copy gs.label_uf;
    act = Array.copy gs.act;
    rad = Array.copy gs.rad;
  }

let run ?observer ?telemetry ?flat:_ ?jobs:_ ?chaos inst0 =
  let network =
    Option.fold chaos ~none:Sim.Lossless ~some:(fun c -> Sim.Chaos c)
  in
  let env = { Sim.default_env with observer; telemetry; network } in
  let tspan name f = Sim.span env name f in
  (* Lemma 2.4's minimalization runs as a real protocol; its rounds join
     the ledger below once it exists. *)
  let minimalized =
    Transform.minimalize ~env inst0
  in
  let inst = minimalized.Transform.value in
  let g = inst.Instance.graph in
  let n = Graph.n g in
  let m = Graph.m g in
  let ledger = Ledger.create () in
  Option.iter
    (fun t -> Dsf_congest.Telemetry.attach_ledger t ledger)
    telemetry;
  let max_bits = ref 0 in
  let note_stats label (stats : Sim.stats) =
    Ledger.add ledger Ledger.Simulated label stats.Sim.rounds;
    if stats.Sim.max_edge_round_bits > !max_bits then
      max_bits := stats.Sim.max_edge_round_bits
  in
  let terms = Array.of_list (Instance.terminals inst) in
  let t = Array.length terms in
  if t = 0 then
    {
      solution = Array.make m false;
      weight = 0;
      dual = Frac.zero;
      merges = [];
      phase_count = 0;
      ledger;
      max_edge_round_bits = 0;
    }
  else begin
    (* ---- Setup: BFS tree; make all (terminal, label) pairs global. ---- *)
    let tree =
      tspan "setup" (fun () ->
          let root = Bfs.max_id_root g in
          let tree, bfs_stats =
            Bfs.build ~env g ~root
          in
          note_stats "setup: BFS tree" bfs_stats;
          Ledger.add ledger Ledger.Simulated
            "setup: minimalize instance (Lemma 2.4)"
            minimalized.Transform.rounds;
          let term_items v =
            if inst.Instance.labels.(v) >= 0 then
              [ v, inst.Instance.labels.(v) ]
            else []
          in
          let pair_bits (_, _) = 2 * Bitsize.id_bits ~n in
          let collected, up_stats =
            Tree_ops.upcast ~env g ~tree
              ~items:term_items ~bits:pair_bits
          in
          note_stats "setup: collect terminals" up_stats;
          let bc_stats =
            Tree_ops.broadcast ~env g
              ~tree ~items:collected ~bits:pair_bits
          in
          note_stats "setup: broadcast terminals" bc_stats;
          tree)
    in
    (* ---- Replicated global state. ---- *)
    let tindex = Hashtbl.create t in
    Array.iteri (fun i v -> Hashtbl.add tindex v i) terms;
    let labels = Array.map (fun v -> inst.Instance.labels.(v)) terms in
    let max_label = Array.fold_left max 0 labels in
    let gs =
      {
        terms;
        tindex;
        labels;
        moats = Uf.create t;
        label_uf = Uf.create (max_label + 1);
        act = Array.make t true;
        rad = Array.make t Frac.zero;
      }
    in
    (* ---- Per-node region state. ---- *)
    let owner = Array.make n (-1) in
    let offset = Array.make n Frac.zero in
    let parent = Array.make n (-1) in
    let covered = Array.make n false in
    Array.iter
      (fun v ->
        owner.(v) <- v;
        covered.(v) <- true)
      terms;
    let accepted_all = ref [] in
    (* terminal-index pairs, newest first *)
    let merges = ref [] in
    let dual = ref Frac.zero in
    let phase = ref 0 in
    while g_exists_active gs do
      tspan "phase" (fun () ->
        incr phase;
        let j = !phase in
        let tag label = Printf.sprintf "phase %d: %s" j label in
        (* Activity of a node's owning moat, at phase start. *)
        let owner_active u =
          owner.(u) >= 0 && g_active gs (Hashtbl.find tindex owner.(u))
        in
        let frozen = Array.init n (fun u -> covered.(u) && not (owner_active u)) in
        let sources =
          Array.to_list
            (Array.init n (fun u ->
                 if covered.(u) && owner_active u then
                   Some (u, offset.(u), owner.(u))
                 else None))
          |> List.filter_map Fun.id
        in
        (* a. Terminal decomposition (Lemma 4.8). *)
        let bf, bf_stats =
          Region_bf.run ~env g ~sources
            ~frozen
        in
        note_stats (tag "decomposition BF") bf_stats;
        let towner u = if frozen.(u) then owner.(u) else bf.(u).Region_bf.owner in
        let toffset u = if frozen.(u) then offset.(u) else bf.(u).Region_bf.offset in
        (* b. Candidate merges at region boundaries (Definition 4.11). *)
        let ex_stats =
            Dsf_congest.Exchange.all_neighbors ~env g
              ~payload_bits:((2 * Bitsize.id_bits ~n) + 2)
          in
          Ledger.add ledger Ledger.Simulated (tag "boundary exchange") ex_stats.Sim.rounds;
        let items u =
          if frozen.(u) || towner u < 0 || not (g_active gs (Hashtbl.find tindex (towner u)))
          then []
          else begin
            let ou = towner u and du = toffset u in
            Array.to_list (Graph.adj g u)
            |> List.filter_map (fun (nb, w, eid) ->
                   let onb = towner nb in
                   if onb < 0 || onb = ou then None
                   else begin
                     let ti = Hashtbl.find tindex ou
                     and tj = Hashtbl.find tindex onb in
                     if Uf.same gs.moats ti tj then None
                     else begin
                       let total = Frac.add (Frac.add du (Frac.of_int w)) (toffset nb) in
                       let mu =
                         if g_active gs tj then Frac.half total else total
                       in
                       let pair = min ou onb, max ou onb in
                       Some { Pipeline.key = { mu; pair; eid }; a = ti; b = tj }
                     end
                   end)
          end
        in
        let pre =
          List.map (fun ((a, b), _) -> a, b) !accepted_all
        in
        (* c. Pipelined filtered collection with early stop (Cor. 4.16). *)
        let scratch = ref (g_copy gs) in
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
                  if g_apply !scratch (it.Pipeline.a, it.Pipeline.b) then
                    stop_found := true)
              fresh;
            !stop_found
          end
        in
        let ckey_bits (it : ckey Pipeline.item) =
          Bitsize.int_bits (abs it.Pipeline.key.mu.Frac.num)
          + Bitsize.int_bits (max 1 it.Pipeline.key.mu.Frac.den_pow)
          + (4 * Bitsize.id_bits ~n)
        in
        let accepted, pipe_stats =
          Pipeline.filtered_upcast ~env ~stop_at_root g ~tree ~vn:t ~pre
            ~items ~cmp:ckey_cmp
            ~bits:ckey_bits
        in
        note_stats (tag "candidate collection") pipe_stats;
        let stop_stats =
          Tree_ops.broadcast ~env g ~tree
            ~items:[ () ] ~bits:(fun () -> 1)
        in
        note_stats (tag "stop broadcast") stop_stats;
        (* Truncate at the first activity-changing merge. *)
        let phase_merges =
          let rec take acc probe = function
            | [] -> None
            | (it : ckey Pipeline.item) :: rest ->
                if g_apply probe (it.Pipeline.a, it.Pipeline.b) then
                  Some (List.rev (it :: acc))
                else take (it :: acc) probe rest
          in
          match take [] (g_copy gs) accepted with
          | Some ms -> ms
          | None ->
              invalid_arg
                "Det_dsf: phase produced no activity-changing merge (bug or \
                 disconnected component)"
        in
        (* d. Broadcast the phase's merges; everyone updates locally. *)
        let bcast_stats =
          Tree_ops.broadcast ~env g ~tree
            ~items:phase_merges ~bits:ckey_bits
        in
        note_stats (tag "merge broadcast") bcast_stats;
        let active_at_start = Array.init t (fun ti -> g_active gs ti) in
        let mu_phase = (List.nth phase_merges (List.length phase_merges - 1)).Pipeline.key.mu in
        let mu_prev = ref Frac.zero in
        List.iter
          (fun (it : ckey Pipeline.item) ->
            let inc = Frac.sub it.Pipeline.key.mu !mu_prev in
            mu_prev := it.Pipeline.key.mu;
            let count = g_active_moats gs in
            dual := Frac.add !dual (Frac.mul_int inc count);
            ignore (g_apply gs (it.Pipeline.a, it.Pipeline.b));
            accepted_all := ((it.Pipeline.a, it.Pipeline.b), it.Pipeline.key) :: !accepted_all;
            merges :=
              {
                mu_total = it.Pipeline.key.mu;
                mu_increment = inc;
                terminals = (gs.terms.(it.Pipeline.a), gs.terms.(it.Pipeline.b));
                phase = j;
              }
              :: !merges)
          phase_merges;
        (* Radii: every moat active during the phase grew by mu_phase. *)
        Array.iteri
          (fun ti _ ->
            if active_at_start.(ti) then
              gs.rad.(ti) <- Frac.add gs.rad.(ti) mu_phase)
          gs.terms;
        (* Region freeze: nodes whose reduced distance is within the phase's
           growth join (and freeze into) their owner's region. *)
        for u = 0 to n - 1 do
          if not frozen.(u) then begin
            let ou = bf.(u).Region_bf.owner in
            if ou >= 0 then begin
              let ti = Hashtbl.find tindex ou in
              if active_at_start.(ti) then begin
                if covered.(u) then offset.(u) <- Frac.sub offset.(u) mu_phase
                else if Frac.compare bf.(u).Region_bf.offset mu_phase <= 0 then begin
                  covered.(u) <- true;
                  owner.(u) <- ou;
                  parent.(u) <- bf.(u).Region_bf.parent;
                  offset.(u) <- Frac.sub bf.(u).Region_bf.offset mu_phase
                end
              end
            end
          end
        done
)
    done;
    (* ---- Final selection: minimal candidate subforest + token flood. ---- *)
    let all_merges = List.rev !accepted_all in
    (* Which merges are needed?  Remove one, check some label disconnects. *)
    let needed ((a0, b0), _) =
      let uf = Uf.create t in
      List.iter
        (fun ((a, b), _) -> if (a, b) <> (a0, b0) then ignore (Uf.union uf a b))
        all_merges;
      let disconnects = ref false in
      for ti = 0 to t - 1 do
        for tj = ti + 1 to t - 1 do
          if
            labels.(ti) = labels.(tj)
            && not (Uf.same uf ti tj)
          then disconnects := true
        done
      done;
      !disconnects
    in
    let fmin = List.filter needed all_merges in
    let seeds = Array.make n false in
    let solution = Array.make m false in
    List.iter
      (fun (_, key) ->
        let e = Graph.edge g key.eid in
        solution.(key.eid) <- true;
        seeds.(e.Graph.u) <- true;
        seeds.(e.Graph.v) <- true)
      fmin;
    let solution =
      tspan "final" (fun () ->
          let flood_edges, tf_stats =
            Select.token_flood ~env g
              ~parent ~seeds
          in
          note_stats "final: token flood (path selection)" tf_stats;
          List.iter (fun eid -> solution.(eid) <- true) flood_edges;
          (* Merge-level minimality (F_min) is not quite edge-level
             minimality: two merge paths can overlap at a Steiner node,
             leaving a redundant bridge edge.  A final intra-tree
             label-propagation prune (the Appendix F.3 technique) removes
             those; its O(D + t + depth) rounds are charged. *)
          let solution = Instance.prune inst solution in
          Ledger.add ledger Ledger.Charged
            "final: edge-level prune (F.3 style)"
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
      max_edge_round_bits = !max_bits;
    }
  end
