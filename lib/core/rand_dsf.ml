module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Paths = Dsf_graph.Paths
module Sim = Dsf_congest.Sim
module Bfs = Dsf_congest.Bfs
module Tree_ops = Dsf_congest.Tree_ops
module Ledger = Dsf_congest.Ledger
module Bitsize = Dsf_util.Bitsize
module Virtual_tree = Dsf_embed.Virtual_tree
module LR = Level_routing

type result = {
  solution : bool array;
  weight : int;
  ledger : Ledger.t;
  truncated : bool;
  repetitions : int;
  s_param : int;
  phases : int;
}

let isqrt = Dsf_util.Intmath.isqrt


(* One full first-stage run: returns the selected edge set F. *)
let first_stage ?observer ?telemetry rng g inst ledger note_stats ~truncate =
  let tspan name fn = Dsf_congest.Telemetry.span_opt telemetry name fn in
  let n = Graph.n g in
  let m = Graph.m g in
  let tree, bfs_stats =
    Bfs.build ?observer ?telemetry g ~root:(Bfs.max_id_root g)
  in
  note_stats "stage1: BFS tree" bfs_stats;
  let truncate_at = if truncate then Some (isqrt n) else None in
  let vt, vt_rounds =
    tspan "virtual_tree" (fun () ->
        Virtual_tree.build ?observer rng ?truncate_at g)
  in
  Ledger.add ledger Ledger.Simulated "stage1: virtual tree (LE lists + S Voronoi)"
    vt_rounds;
  let f = Array.make m false in
  (* Current holders: l(v) as a label list per node. *)
  let holders = Array.make n [] in
  Array.iteri
    (fun v l -> if l >= 0 then holders.(v) <- [ l ])
    inst.Instance.labels;
  for i = 0 to vt.Virtual_tree.levels do
    tspan "level" @@ fun () ->
    let tag label = Printf.sprintf "stage1 level %d: %s" i label in
    (* (a) drop labels with a single holder: simulated two-witness
       convergecast + broadcast, as in Lemma 2.4. *)
    let witness_items v = List.map (fun l -> l, v) holders.(v) in
    let witnesses, w_stats =
      Tree_ops.upcast_dedup ?observer ?telemetry ~per_key:2 g ~tree
        ~items:witness_items
        ~key:fst
        ~bits:(fun _ -> 2 * Bitsize.id_bits ~n)
    in
    note_stats (tag "single-holder check") w_stats;
    let count = Hashtbl.create 16 in
    List.iter
      (fun (l, _) ->
        Hashtbl.replace count l
          (1 + Option.value ~default:0 (Hashtbl.find_opt count l)))
      witnesses;
    let live = Hashtbl.fold (fun l c acc -> if c >= 2 then l :: acc else acc) count [] in
    let _, lb_stats =
      Tree_ops.broadcast ?observer ?telemetry g ~tree ~items:live
        ~bits:(fun _ -> Bitsize.id_bits ~n)
    in
    note_stats (tag "live-label broadcast") lb_stats;
    for v = 0 to n - 1 do
      holders.(v) <- List.filter (fun l -> List.mem l live) holders.(v)
    done;
    (* (b) build the per-node origin lists. *)
    let origins v =
      List.map (fun l -> l, vt.Virtual_tree.ancestors.(v).(i)) holders.(v)
    in
    (* (c) route labels to targets. *)
    let rstates, r_stats =
      tspan "label_routing" (fun () -> LR.route_phase ?observer g vt ~origins)
    in
    note_stats (tag "label routing") r_stats;
    Array.iter
      (fun st -> List.iter (fun eid -> f.(eid) <- true) st.LR.marked)
      rstates;
    (* (d) backtrace: each target picks one chain and ships its bundle. *)
    let bundles v =
      let st = rstates.(v) in
      match st.LR.lhat with
      | [] -> []
      | labels ->
          (* Prefer a self-originated chain; otherwise the smallest
             received (label, target=v) chain. *)
          let chains =
            Hashtbl.fold
              (fun ((_, w) as lw) sender acc ->
                if w = v then (sender = -1, lw) :: acc else acc)
              st.LR.known []
          in
          let route =
            match List.sort (fun (a, _) (b, _) -> compare b a) chains with
            | (true, _) :: _ -> None (* self-originated: accept locally *)
            | (false, lw) :: _ -> Some lw
            | [] -> None
          in
          begin
            match route with
            | None -> []
            | Some lw -> List.map (fun l -> { LR.route = lw; payload = l }) labels
          end
    in
    let self_kept v =
      let st = rstates.(v) in
      if
        st.LR.lhat <> []
        && Hashtbl.fold
             (fun (_, w) sender acc -> acc || (w = v && sender = -1))
             st.LR.known false
      then st.LR.lhat
      else []
    in
    let tables v = rstates.(v).LR.known in
    let bstates, b_stats =
      tspan "backtrace" (fun () ->
          LR.backtrace_phase ?observer g ~tables ~bundles)
    in
    note_stats (tag "backtrace") b_stats;
    for v = 0 to n - 1 do
      holders.(v) <- List.sort_uniq compare (bstates.(v).LR.b_l @ self_kept v)
    done
  done;
  f, vt

let run ?observer ?telemetry ?(repetitions = 3) ?force_truncate ?(jobs = 1)
    ~rng inst0 =
  let minimalized = Transform.minimalize ?observer ?telemetry inst0 in
  let inst = minimalized.Transform.value in
  let g = inst.Instance.graph in
  let m = Graph.m g in
  let ledger = Ledger.create () in
  Option.iter
    (fun t -> Dsf_congest.Telemetry.attach_ledger t ledger)
    telemetry;
  Ledger.add ledger Ledger.Simulated "setup: minimalize instance (Lemma 2.4)"
    minimalized.Transform.rounds;
  let max_bits = ref 0 in
  let d, _, s = Paths.parameters g in
  (* The regime test of footnote 2, genuinely simulated: count n by
     convergecast, then run Bellman-Ford for at most sqrt(n) rounds. *)
  let regime, regime_rounds =
    Dsf_congest.Params.regime ?observer ?telemetry g
  in
  Ledger.add ledger Ledger.Simulated "determine s vs sqrt(n) (footnote 2)"
    regime_rounds;
  let truncate =
    match force_truncate with
    | Some b -> b
    | None -> (match regime with `Large_s -> true | `Small_s _ -> false)
  in
  if Instance.component_count inst = 0 then
    {
      solution = Array.make m false;
      weight = 0;
      ledger;
      truncated = truncate;
      repetitions;
      s_param = s;
      phases = 0;
    }
  else begin
    (* Repeat the first stage; keep the lightest F (algorithm step 1-2).
       The repetitions are independent trials: each draws its randomness
       from a stream split off the caller's rng by trial index *before*
       the fan-out and accumulates rounds in its own ledger, so running
       them on the domain pool is bit-identical to the sequential loop —
       trial ledgers merge back in repetition order below. *)
    let rep_rngs =
      Array.init repetitions (fun i -> Dsf_util.Rng.split rng (i + 1))
    in
    (* One telemetry fork per repetition, split off sequentially before the
       fan-out (same discipline as the RNG streams): each trial profiles
       into its own tree on its own thread id, and the forks merge back in
       repetition order below — bit-identical for any [jobs]. *)
    let trial_tels =
      match telemetry with
      | None -> [||]
      | Some t ->
          Array.init repetitions (fun _ -> Dsf_congest.Telemetry.fork t)
    in
    let trial i =
      let rep = i + 1 in
      let tel = if i < Array.length trial_tels then Some trial_tels.(i) else None in
      let tspan name fn = Dsf_congest.Telemetry.span_opt tel name fn in
      tspan "trial" @@ fun () ->
      let trial_ledger = Ledger.create () in
      Option.iter
        (fun t -> Dsf_congest.Telemetry.attach_ledger t trial_ledger)
        tel;
      let trial_max_bits = ref 0 in
      let note_stats label (stats : Sim.stats) =
        Ledger.add trial_ledger Ledger.Simulated label stats.Sim.rounds;
        if stats.Sim.max_edge_round_bits > !trial_max_bits then
          trial_max_bits := stats.Sim.max_edge_round_bits
      in
      let f, vt =
        first_stage ?observer ?telemetry:tel rep_rngs.(i) g inst trial_ledger
          note_stats ~truncate
      in
      let w = Graph.edge_set_weight g f in
      (* Compare candidate forests by a simulated weight convergecast:
         each node contributes half the weight of its selected incident
         edges. *)
      let _, w_stats =
        let tree, _ = Bfs.build ?observer ?telemetry:tel g ~root:(Bfs.max_id_root g) in
        Tree_ops.aggregate ?observer ?telemetry:tel g ~tree
          ~value:(fun v ->
            Array.fold_left
              (fun acc (_, w', eid) -> if f.(eid) then acc + w' else acc)
              0 (Graph.adj g v))
          ~combine:( + )
          ~bits:(fun x -> Bitsize.int_bits (max 1 x))
      in
      Ledger.add trial_ledger Ledger.Simulated
        (Printf.sprintf "stage1 rep %d: weight comparison" rep)
        w_stats.Sim.rounds;
      w, f, vt, trial_ledger, !trial_max_bits
    in
    (* Every trial's runs go through [Sim.run_flat], which reads the
       graph's lazily memoized CSR view: build it here on the coordinator
       so concurrent trials share one view instead of racing to fill the
       memo. *)
    ignore (Graph.csr g);
    let trials =
      Dsf_util.Pool.map_chunked ~jobs trial (Array.init repetitions Fun.id)
    in
    let best = ref None in
    let phases = ref 0 in
    Array.iteri
      (fun i (w, f, vt, trial_ledger, trial_max_bits) ->
        Ledger.merge_into ~dst:ledger trial_ledger;
        (match telemetry with
        | Some t ->
            Dsf_congest.Telemetry.merge_into ~dst:t trial_tels.(i)
        | None -> ());
        if trial_max_bits > !max_bits then max_bits := trial_max_bits;
        phases := vt.Virtual_tree.levels + 1;
        match !best with
        | Some (bw, _, _) when bw <= w -> ()
        | _ -> best := Some (w, f, vt))
      trials;
    let _, f, vt =
      match !best with Some x -> x | None -> assert false
    in
    let solution =
      if not truncate then f
      else begin
        let out =
          Dsf_congest.Telemetry.span_opt telemetry "stage2" (fun () ->
              Reduced_solver.solve ?observer ?telemetry inst ~f
                ~s_set:vt.Virtual_tree.s_set ~diameter:d)
        in
        Ledger.add ledger Ledger.Simulated "stage2: T_v assignment"
          out.Reduced_solver.assignment_rounds;
        Ledger.add ledger Ledger.Simulated
          "stage2: label helper graph (Lemma G.12)"
          out.Reduced_solver.label_rounds;
        Ledger.add ledger Ledger.Charged
          "stage2: spanner + central solve ([17] internals)"
          out.Reduced_solver.charged_rounds;
        Array.mapi (fun i b -> b || out.Reduced_solver.extra_edges.(i)) f
      end
    in
    {
      solution;
      weight = Graph.edge_set_weight g solution;
      ledger;
      truncated = truncate;
      repetitions;
      s_param = s;
      phases = !phases;
    }
  end
