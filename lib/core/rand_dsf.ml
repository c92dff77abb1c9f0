module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Sim = Dsf_congest.Sim
module Params = Dsf_congest.Params
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


(* One full first-stage run over the regime test's BFS tree: returns the
   selected edge set F and the virtual tree. *)
let first_stage ~env rng g inst ~truncate ~tree ~wd_bound =
  let tspan name fn = Sim.span env name fn in
  let n = Graph.n g in
  let m = Graph.m g in
  let truncate_at = if truncate then Some (isqrt n) else None in
  let vt =
    tspan "virtual_tree" (fun () ->
        Virtual_tree.build ~env rng ?truncate_at ~wd_bound g)
  in
  let f = Array.make m false in
  (* Current holders: l(v) as a label list per node. *)
  let holders = Array.make n [] in
  Array.iteri
    (fun v l -> if l >= 0 then holders.(v) <- [ l ])
    inst.Instance.labels;
  (* Steps (b)-(d) of level [i] for the live labels' holders. *)
  let route_level i =
    (* (b) build the per-node origin lists. *)
    let origins v =
      List.map (fun l -> l, vt.Virtual_tree.ancestors.(v).(i)) holders.(v)
    in
    (* (c) route labels to targets. *)
    let rstates =
      tspan "label_routing" (fun () -> LR.route_phase ~env g vt ~origins)
    in
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
    let bstates =
      tspan "backtrace" (fun () ->
          LR.backtrace_phase ~env g ~tables ~bundles)
    in
    for v = 0 to n - 1 do
      holders.(v) <- List.sort_uniq compare (bstates.(v).LR.b_l @ self_kept v)
    done
  in
  (* Once no label has two holders, every later level moves nothing; the
     live-label broadcast tells every node so, and the walk stops. *)
  let concentrated = ref false in
  for i = 0 to vt.Virtual_tree.levels do
    if not !concentrated then tspan "level" @@ fun () ->
    (* (a) drop labels with a single holder: simulated two-witness
       convergecast + broadcast, as in Lemma 2.4. *)
    let witness_items v = List.map (fun l -> l, v) holders.(v) in
    let witnesses =
      Tree_ops.upcast_dedup ~env ~per_key:2 g ~tree
        ~items:witness_items
        ~key:fst
        ~bits:(fun _ -> 2 * Bitsize.id_bits ~n)
    in
    let count = Hashtbl.create 16 in
    List.iter
      (fun (l, _) ->
        Hashtbl.replace count l
          (1 + Option.value ~default:0 (Hashtbl.find_opt count l)))
      witnesses;
    let live = Hashtbl.fold (fun l c acc -> if c >= 2 then l :: acc else acc) count [] in
    Tree_ops.broadcast ~env g ~tree ~items:live
      ~bits:(fun _ -> Bitsize.id_bits ~n);
    for v = 0 to n - 1 do
      holders.(v) <- List.filter (fun l -> List.mem l live) holders.(v)
    done;
    if live = [] then concentrated := true else route_level i
  done;
  f, vt

let run ?telemetry ?(repetitions = 3) ?force_truncate ?(jobs = 1)
    ~rng inst0 =
  (* [jobs] drives only the trial fan-out below; every simulated run
     steps on the domain that calls it. *)
  let ledger = Ledger.create () in
  let env = { Sim.default_env with telemetry; ledger = Some ledger } in
  let g = inst0.Instance.graph in
  let m = Graph.m g in
  (* The run's one BFS tree: every stage runs on it, and twice its height
     bounds D. *)
  let tree = Bfs.build ~env g ~root:(Bfs.max_id_root g) in
  let inst = Transform.minimalize ~env ~tree inst0 in
  (* The regime test of footnote 2, genuinely simulated: count n by
     convergecast, then run Bellman-Ford for at most sqrt(n) rounds.  Its
     WD bound sizes the virtual tree: all known to every node before the
     trial fan-out. *)
  let { Params.n; s; wd_bound } = Params.regime ~env g ~tree in
  let s_param = Option.value s ~default:(isqrt n + 1) in
  let truncate = Option.value force_truncate ~default:(Option.is_none s) in
  if Instance.component_count inst = 0 then
    {
      solution = Array.make m false;
      weight = 0;
      ledger;
      truncated = truncate;
      repetitions;
      s_param;
      phases = 0;
    }
  else begin
    (* Repeat the first stage; keep the lightest F (algorithm step 1-2).
       The repetitions are independent trials: each draws its randomness
       from a stream split off the caller's rng by trial index *before*
       the fan-out and its runs count their rounds into its own ledger,
       so running them on the domain pool is bit-identical to the
       sequential loop — trial ledgers merge back in repetition order
       below. *)
    let rep_rngs =
      Array.init repetitions (fun i -> Dsf_util.Rng.split rng (i + 1))
    in
    (* One telemetry fork per repetition, split off sequentially before the
       fan-out (same discipline as the RNG streams): each trial profiles
       into its own tree on its own thread id (and records into its own
       flight recorder, if any), and the forks merge back in repetition
       order below — bit-identical for any [jobs]. *)
    let trial_tels =
      match telemetry with
      | None -> [||]
      | Some t ->
          Array.init repetitions (fun _ -> Dsf_congest.Telemetry.fork t)
    in
    let trial i =
      let tel = if i < Array.length trial_tels then Some trial_tels.(i) else None in
      let trial_ledger = Ledger.create () in
      let env =
        { env with Sim.telemetry = tel; ledger = Some trial_ledger }
      in
      let tspan name fn = Sim.span env name fn in
      tspan "trial" @@ fun () ->
      let f, vt = first_stage ~env rep_rngs.(i) g inst ~truncate ~tree ~wd_bound in
      let w = Graph.edge_set_weight g f in
      (* Compare candidate forests by a simulated weight convergecast over
         the BFS tree: each node contributes half the weight of its
         selected incident edges. *)
      ignore
        (Tree_ops.aggregate ~env g ~tree
           ~value:(fun v ->
             Array.fold_left
               (fun acc (_, w', eid) -> if f.(eid) then acc + w' else acc)
               0 (Graph.adj g v))
           ~combine:( + )
           ~bits:(fun x -> Bitsize.int_bits (Int.max 1 x)));
      w, f, vt, trial_ledger
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
      (fun i (w, f, vt, trial_ledger) ->
        Ledger.merge_into ~dst:ledger trial_ledger;
        (match telemetry with
        | Some t ->
            Dsf_congest.Telemetry.merge_into ~dst:t trial_tels.(i)
        | None -> ());
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
          Sim.span env "stage2" (fun () ->
              Reduced_solver.solve ~env inst ~tree ~f
                ~s_set:vt.Virtual_tree.s_set)
        in
        Sim.charge env "stage2: spanner + central solve ([17] internals)"
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
      s_param;
      phases = !phases;
    }
  end
