module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Paths = Dsf_graph.Paths
module Uf = Dsf_util.Union_find
module Sim = Dsf_congest.Sim
module Bfs = Dsf_congest.Bfs
module Tree_ops = Dsf_congest.Tree_ops
module Pipeline = Dsf_congest.Pipeline
module Ledger = Dsf_congest.Ledger
module Bitsize = Dsf_util.Bitsize
module C = Moat_common

type result = {
  solution : bool array;
  weight : int;
  ledger : Dsf_congest.Ledger.t;
  sigma : int;
  growth_phases : int;
  merge_phase_count : int;
  merge_count : int;
  merge_pairs : (int * int) list;
  small_moat_iterations : int;
}

(* Candidate key: phase-major, then reduced weight, then owners and edge
   (Lemma 4.13's order). *)
type ckey = { phase : int; mu : Frac.t; pair : int * int; eid : int }

let ckey_cmp a b =
  let c = compare a.phase b.phase in
  if c <> 0 then c
  else begin
    let c = Frac.compare a.mu b.mu in
    if c <> 0 then c
    else
      let c = Dsf_util.Intmath.compare_pair a.pair b.pair in
      if c <> 0 then c else Int.compare a.eid b.eid
  end

let isqrt = Dsf_util.Intmath.isqrt

let ceil_log2 = Dsf_util.Intmath.ceil_log2

(* The weight scale is at most 8 eps_den, and the scaled distances are
   added three at a time and halved (2^3 more): 8 * 8 * eps_den times the
   total weight must stay within max_int. *)
let max_eps_den = max_int / (64 * Graph.max_total_weight)

let run ?telemetry ~eps_num ~eps_den inst0 =
  let ledger = Ledger.create () in
  let env = { Sim.default_env with telemetry; ledger = Some ledger } in
  if eps_num <= 0 || eps_den <= 0 || eps_num > eps_den then
    invalid_arg "Det_sublinear.run: need 0 < eps <= 1";
  if eps_den > max_eps_den then
    invalid_arg "Det_sublinear.run: eps_den above max_eps_den";
  let tspan name f = Sim.span env name f in
  let inst = Transform.minimalize ~env inst0 in
  let g = inst.Instance.graph in
  let n = Graph.n g in
  let m = Graph.m g in
  (* Algorithm-2 moat state, replicated at every node. *)
  let ms = C.create inst in
  let t = Array.length ms.C.terms in
  let scale = ((8 * eps_den) + eps_num - 1) / eps_num in
  if t = 0 then
    {
      solution = Array.make m false;
      weight = 0;
      ledger;
      sigma = 0;
      growth_phases = 0;
      merge_phase_count = 0;
      merge_count = 0;
      merge_pairs = [];
      small_moat_iterations = 0;
    }
  else begin
    (* All simulation runs on the scaled graph (identical topology and edge
       ids) so integer thresholds coexist with exact fractional radii. *)
    let g_scaled =
      Graph.make ~n
        (Array.to_list (Graph.edges g)
        |> List.map (fun (e : Graph.edge) -> e.u, e.v, e.w * scale))
    in
    let _, wd, s = Paths.parameters g in
    let sigma = isqrt (Int.min (s * t) n) in
    let tree =
      tspan "setup" @@ fun () ->
      (* The nodes learn n, t and (an estimate of) s by convergecast plus a
         full Bellman-Ford run (footnote 2's technique), simulated. *)
      ignore (Dsf_congest.Params.count_nodes ~env g);
      ignore (Dsf_congest.Params.estimate_s ~env ~cap:(n + 1) g);
      let root = Bfs.max_id_root g in
      Bfs.build ~env g_scaled ~root
    in
    (* Per-node region state on the scaled graph. *)
    let reg = Region_bf.regions ms in
    (* Omniscient materialization of F (for Definition 4.18 small/large
       classification); the distributed output is built by token flood. *)
    let forest = Array.make m false in
    let uf_nodes = Uf.create n in
    (* Scratch tables reused across merge phases: component sizes for the
       Definition 4.18 small/large test and the per-moat proposal slots —
       preallocated flat arrays instead of a fresh hashtable per
       iteration: hashtable probes dominated the owner-scan profile. *)
    let comp_size = Array.make n 0 in
    let proposals = Array.make t None in
    let parent = reg.Region_bf.parents in
    let materialize (key : ckey) =
      let e = Graph.edge g key.eid in
      let add eid =
        let u, v = Graph.endpoints g eid in
        if Uf.union uf_nodes u v then forest.(eid) <- true
      in
      add key.eid;
      let rec climb u =
        if parent.(u) >= 0 then begin
          (match Graph.find_edge g u parent.(u) with
          | Some eid -> add eid
          | None -> assert false);
          climb parent.(u)
        end
      in
      climb e.Graph.u;
      climb e.Graph.v
    in
    let accepted : ((int * int) * ckey) list ref = ref [] in
    let merge_pairs = ref [] in
    let merge_count = ref 0 in
    let apply_merge (a, b) (key : ckey) =
      C.merge_alg2 ms a b;
      materialize key;
      accepted := ((a, b), key) :: !accepted;
      merge_pairs := key.pair :: !merge_pairs;
      incr merge_count
    in
    let pre_pairs () = List.map fst !accepted in
    let mu_hat = ref ((scale + 1) / 2) in
    let total_growth = ref Frac.zero in
    let growth_phases = ref 0 in
    let merge_phase_count = ref 0 in
    let small_iterations = ref 0 in
    let max_growth_phases =
      (* Scaling every weight by [scale] scales every distance by it, so
         the scaled graph's weighted diameter is exactly [scale * wd]. *)
      (2 * (ceil_log2 (Int.max 2 (scale * wd)) + 2) * (2 * eps_den / eps_num + 2))
      + 16
    in
    let key_bits (it : ckey Pipeline.item) =
      Frac.bits it.Pipeline.key.mu + (4 * Bitsize.id_bits ~n)
    in
    while C.exists_active ms && !growth_phases < max_growth_phases do
      tspan "growth" @@ fun () ->
      incr growth_phases;
      let gtag label = Printf.sprintf "growth %d: %s" !growth_phases label in
      (* Per-node committed active-active candidates of this growth phase. *)
      let store : ckey Pipeline.item list array = Array.make n [] in
      (* ---- Step 3a: merge phases driven by active-inactive events. ---- *)
      let continue_3a = ref true in
      while !continue_3a do
        tspan "merge_phase" @@ fun () ->
        incr merge_phase_count;
        let j = !merge_phase_count in
        let ph = Region_bf.decompose ~env g_scaled reg ms in
        Dsf_congest.Exchange.all_neighbors ~env g_scaled
          ~payload_bits:((2 * Bitsize.id_bits ~n) + 2);
        let towner = Region_bf.owner_at reg ph in
        let toffset = Region_bf.offset_at reg ph in
        (* Local candidate generation: split by neighbor activity. *)
        let temp_aa = ref [] in
        let min_ai = ref None in
        for u = 0 to n - 1 do
          if ph.Region_bf.growing.(u) then begin
            let ou = towner u in
            let ti = ms.C.tindex.(ou) in
            let du = toffset u in
            Array.iter
              (fun (nb, w, eid) ->
                let onb = towner nb in
                if onb >= 0 && onb <> ou then begin
                  let tj = ms.C.tindex.(onb) in
                  if not (Uf.same ms.C.moats ti tj) then begin
                    let total =
                      Frac.add (Frac.add du (Frac.of_int w)) (toffset nb)
                    in
                    (* Strictly negative slack means the pair's merge was
                       already applied (the edge is interior); zero slack
                       is a pending event — balls touching exactly at a
                       threshold defer to the next phase with mu = 0. *)
                    let fully_covered =
                      reg.Region_bf.covered.(u) && reg.Region_bf.covered.(nb)
                      && Frac.sign total < 0
                    in
                    if not fully_covered then begin
                      let pair = Int.min ou onb, Int.max ou onb in
                      if C.active ms tj then begin
                        let key =
                          { phase = j; mu = Frac.half total; pair; eid }
                        in
                        temp_aa :=
                          (u, { Pipeline.key; a = ti; b = tj }) :: !temp_aa
                      end
                      else begin
                        let key = { phase = j; mu = total; pair; eid } in
                        let cand = key, ti, tj in
                        let better =
                          match !min_ai with
                          | None -> true
                          | Some (bk, _, _) -> ckey_cmp key bk < 0
                        in
                        if better then min_ai := Some cand
                      end
                    end
                  end
                end)
              (Graph.adj g_scaled u)
          end
        done;
        (* Min active-inactive candidate via a simulated convergecast. *)
        ignore
          (Tree_ops.aggregate ~env g_scaled ~tree
             ~value:(fun _ -> 1)
             ~combine:Int.min
             ~bits:(fun _ -> 4 * Bitsize.id_bits ~n));
        Tree_ops.broadcast ~env g_scaled ~tree ~items:[ () ]
          ~bits:(fun () -> 1);
        let remaining = Frac.sub (Frac.of_int !mu_hat) !total_growth in
        let threshold_hit =
          match !min_ai with
          | None -> true
          | Some (key, _, _) -> Frac.compare key.mu remaining >= 0
        in
        let mu_j = if threshold_hit then remaining else (match !min_ai with Some (k, _, _) -> k.mu | None -> assert false) in
        (* Commit this phase's active-active candidates: real iff the merge
           falls within the phase's growth (strictly, unless the phase ended
           with a merge at exactly mu_j). *)
        List.iter
          (fun (u, (it : ckey Pipeline.item)) ->
            let c = Frac.compare it.Pipeline.key.mu mu_j in
            if c < 0 || (c = 0 && not threshold_hit) then
              store.(u) <- it :: store.(u))
          !temp_aa;
        (* Coverage update for growth mu_j. *)
        Region_bf.freeze reg ph mu_j;
        total_growth := Frac.add !total_growth mu_j;
        if threshold_hit then continue_3a := false
        else begin
          match !min_ai with
          | Some (key, ti, tj) -> apply_merge (ti, tj) key
          | None -> assert false
        end
      done;
      (* ---- Steps 3b-3f: deferred active-active merges. ---- *)
      let moat_rep ti = Uf.find ms.C.moats ti in
      let component_small () =
        (* Small iff the moat's component in (V, F) has < sigma nodes
           (Definition 4.18).  [comp_size] is indexed by union-find
           representative, rebuilt (not reallocated) per call. *)
        Array.fill comp_size 0 n 0;
        for u = 0 to n - 1 do
          let r = Uf.find uf_nodes u in
          comp_size.(r) <- comp_size.(r) + 1
        done;
        fun ti -> comp_size.(Uf.find uf_nodes ms.C.terms.(ti)) < sigma
      in
      let max_iters = ceil_log2 (Int.max 2 sigma) + 1 in
      let progressing = ref true in
      let iter = ref 0 in
      (* Communication structure for in-moat aggregation: the selected
         forest plus the frozen region trees (every candidate-holding node
         hangs off its owner terminal through them). *)
      let moat_mask () =
        let mask = Array.copy forest in
        for u = 0 to n - 1 do
          if reg.Region_bf.covered.(u) && parent.(u) >= 0 then begin
            match Graph.find_edge g u parent.(u) with
            | Some eid -> mask.(eid) <- true
            | None -> ()
          end
        done;
        mask
      in
      while !progressing && !iter < max_iters do
        tspan "small_moats" @@ fun () ->
        incr iter;
        incr small_iterations;
        let is_small = component_small () in
        (* Step 3bi: each moat aggregates its minimal live candidate by
           gossip along its forest + region-tree edges (simulated). *)
        let live (it : ckey Pipeline.item) =
          not (Uf.same ms.C.moats it.Pipeline.a it.Pipeline.b)
        in
        let node_min u =
          List.fold_left
            (fun acc it ->
              if not (live it) then acc
              else begin
                match acc with
                | Some best when ckey_cmp best.Pipeline.key it.Pipeline.key <= 0 ->
                    acc
                | _ -> Some it
              end)
            None store.(u)
        in
        let gossip =
          Dsf_congest.Component_ops.component_min_item ~env g_scaled
            ~mask:(moat_mask ()) ~values:node_min
            ~cmp:(fun a b -> ckey_cmp a.Pipeline.key b.Pipeline.key)
            ~bits:key_bits
        in
        (* Read each small moat's proposal at one of its terminals; the
           reused [proposals] array is slotted by moat representative. *)
        Array.fill proposals 0 t None;
        let n_proposals = ref 0 in
        Array.iteri
          (fun ti _ ->
            let rep = moat_rep ti in
            if is_small ti && Option.is_none proposals.(rep) then begin
              match gossip.(ms.C.terms.(ti)) with
              | Some it when live it ->
                  proposals.(rep) <- Some (it.Pipeline.key, it);
                  incr n_proposals
              | _ -> ()
            end)
          ms.C.terms;
        if !n_proposals = 0 then progressing := false
        else begin
          (* Greedy maximal matching on small-small proposals, then
             unmatched small moats re-add their proposal (Step 3bii). *)
          let matched = Hashtbl.create 16 in
          let chosen = ref [] in
          let proposals_sorted =
            let acc = ref [] in
            for rep = t - 1 downto 0 do
              match proposals.(rep) with
              | Some (k, it) -> acc := (k, rep, it) :: !acc
              | None -> ()
            done;
            List.sort (fun (k1, _, _) (k2, _, _) -> ckey_cmp k1 k2) !acc
          in
          List.iter
            (fun (_, _, (it : ckey Pipeline.item)) ->
              let ra = moat_rep it.Pipeline.a and rb = moat_rep it.Pipeline.b in
              if
                is_small it.Pipeline.a && is_small it.Pipeline.b
                && (not (Hashtbl.mem matched ra))
                && not (Hashtbl.mem matched rb)
              then begin
                Hashtbl.add matched ra ();
                Hashtbl.add matched rb ();
                chosen := it :: !chosen
              end)
            proposals_sorted;
          List.iter
            (fun (_, rep, (it : ckey Pipeline.item)) ->
              if not (Hashtbl.mem matched rep) then chosen := it :: !chosen)
            proposals_sorted;
          (* Apply in ascending order, dropping cycle-closers. *)
          let in_order =
            List.sort
              (fun (a : ckey Pipeline.item) b -> ckey_cmp a.Pipeline.key b.Pipeline.key)
              !chosen
          in
          List.iter
            (fun (it : ckey Pipeline.item) ->
              if not (Uf.same ms.C.moats it.Pipeline.a it.Pipeline.b) then
                apply_merge (it.Pipeline.a, it.Pipeline.b) it.Pipeline.key)
            in_order;
          (* The matching coordination itself (3-coloring of the proposal
             pseudo-forest, routed through the moat trees) is charged at
             the Lemma F.4 bound; the primitive is implemented and tested
             standalone in {!Dsf_congest.Coloring}. *)
          Sim.charge env
            (gtag
               (Printf.sprintf
                  "matching via Cole-Vishkin %d (Lemma F.4, [6])" !iter))
            ((4 * ceil_log2 (Int.max 2 sigma)) + 8)
        end
      done;
      (* Pipelined Kruskal filter for whatever remains (Lemma 4.14). *)
      let leftover_exists =
        List.exists
          (fun (it : ckey Pipeline.item) ->
            not (Uf.same ms.C.moats it.Pipeline.a it.Pipeline.b))
          (Array.to_list store |> List.concat)
      in
      if leftover_exists then begin
        let items u =
          List.filter
            (fun (it : ckey Pipeline.item) ->
              not (Uf.same ms.C.moats it.Pipeline.a it.Pipeline.b))
            store.(u)
        in
        let selected =
          Pipeline.filtered_upcast ~env g_scaled ~tree ~vn:t
            ~pre:(pre_pairs ()) ~items ~cmp:ckey_cmp ~bits:key_bits
        in
        Tree_ops.broadcast ~env g_scaled ~tree ~items:selected
          ~bits:key_bits;
        List.iter
          (fun (it : ckey Pipeline.item) ->
            if not (Uf.same ms.C.moats it.Pipeline.a it.Pipeline.b) then
              apply_merge (it.Pipeline.a, it.Pipeline.b) it.Pipeline.key)
          selected
      end;
      (* ---- Steps 3g-3i: activity recomputation at the threshold, via the
         Lemma 2.4 technique the paper prescribes: every terminal reports
         (label-class, moat-leader); inner nodes forward at most two
         distinct witnesses per class, so a class is unsatisfied iff the
         root hears it with two distinct leaders.  Genuinely simulated. ---- *)
      (tspan "activity" @@ fun () ->
      let moat_leader ti =
        (* Largest terminal node id in the moat — the L(M) convention. *)
        let rep = Uf.find ms.C.moats ti in
        let best = ref (-1) in
        Array.iteri
          (fun tj node ->
            if Uf.find ms.C.moats tj = rep && node > !best then best := node)
          ms.C.terms;
        !best
      in
      let witness_items v =
        let ti = ms.C.tindex.(v) in
        if ti >= 0 then [ C.label ms ti, moat_leader ti ] else []
      in
      let witnesses =
        Tree_ops.upcast_dedup ~env ~per_key:2 g_scaled ~tree
          ~items:witness_items ~key:fst
          ~bits:(fun _ -> 2 * Bitsize.id_bits ~n)
      in
      let leaders_of = Hashtbl.create 16 in
      List.iter
        (fun (cls, leader) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt leaders_of cls) in
          if not (List.mem leader prev) then
            Hashtbl.replace leaders_of cls (leader :: prev))
        witnesses;
      let unsatisfied =
        Hashtbl.fold
          (fun cls leaders acc ->
            if List.length leaders >= 2 then cls :: acc else acc)
          leaders_of []
      in
      Tree_ops.broadcast ~env g_scaled ~tree
        ~items:unsatisfied
        ~bits:(fun _ -> Bitsize.id_bits ~n);
      (* Everyone updates locally: a moat is active iff its class is
         unsatisfied.  Cross-check against the definitional rule (a moat is
         active iff it is not alone with its class). *)
      C.recompute_activity ms;
      assert (
        Array.for_all Fun.id
          (Array.init t (fun ti ->
               C.active ms ti = List.mem (C.label ms ti) unsatisfied))));
      mu_hat := Moat_rounded.next_threshold ~eps_num ~eps_den !mu_hat
    done;
    if C.exists_active ms then
      invalid_arg "Det_sublinear.run: growth-phase budget exhausted (bug)";
    (* ---- Final selection and pruning (Appendix F.3). ---- *)
    let solution =
      tspan "final" @@ fun () ->
      let solution =
        Select.merge_paths ~env g ~labels:ms.C.init_label ~parent
          (List.rev_map (fun (pair, (key : ckey)) -> pair, key.eid) !accepted)
      in
      (* The merge-level F_min above is not quite edge-minimal (merge paths
         can overlap at Steiner nodes); the fast pruning routine of
         Appendix F.3 finishes the job distributively. *)
      (Pruning.run ~env inst ~f:solution ~sigma).Pruning.pruned
    in
    {
      solution;
      weight = Instance.solution_weight inst solution;
      ledger;
      sigma;
      growth_phases = !growth_phases;
      merge_phase_count = !merge_phase_count;
      merge_count = !merge_count;
      merge_pairs = List.rev !merge_pairs;
      small_moat_iterations = !small_iterations;
    }
  end
