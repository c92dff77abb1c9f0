module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find
module Sim = Dsf_congest.Sim
module Fault = Dsf_congest.Fault
module Bfs = Dsf_congest.Bfs
module Tree_ops = Dsf_congest.Tree_ops
module Bitsize = Dsf_util.Bitsize

type result = {
  pruned : bool array;
  clusters : int;
  cluster_edges : int;
}

let ceil_log2 = Dsf_util.Intmath.ceil_log2

(* ------------------------------------------------------------------ *)
(* Lemma F.7: partition the trees of F into subtree clusters by        *)
(* matching-based growing.  Returns cluster ids per node and the       *)
(* number of iterations (each charged O~(sigma) by the caller).        *)
(* ------------------------------------------------------------------ *)

let grow_clusters ~env g f sigma =
  let n = Graph.n g in
  let uf = Uf.create n in
  let iterations = ref 0 in
  let progress = ref true in
  let max_iter = ceil_log2 (Int.max 2 sigma) + 2 in
  while !progress && !iterations < max_iter do
    incr iterations;
    progress := false;
    (* Proposal discovery runs as a real gossip inside each cluster: the
       mask enables F-edges already internal to a cluster, and values are
       the outgoing F-edges seen locally. *)
    let mask =
      Array.init (Graph.m g) (fun eid ->
          let u, v = Graph.endpoints g eid in
          f.(eid) && Uf.same uf u v)
    in
    let values v =
      Array.to_list (Graph.adj g v)
      |> List.filter_map (fun (nb, _, eid) ->
             if f.(eid) && not (Uf.same uf v nb) then Some eid else None)
      |> function [] -> None | l -> Some (List.fold_left Int.min (List.hd l) l)
    in
    ignore
      (Dsf_congest.Component_ops.component_min_item ~env g ~mask ~values
         ~cmp:compare
         ~bits:(fun _ -> Bitsize.id_bits ~n));
    (* Each small cluster proposes one outgoing F-edge. *)
    let proposal = Hashtbl.create 16 in
    Array.iter
      (fun (e : Graph.edge) ->
        if f.(e.id) then begin
          let cu = Uf.find uf e.u and cv = Uf.find uf e.v in
          if cu <> cv then begin
            if Uf.size uf e.u < sigma && not (Hashtbl.mem proposal cu) then
              Hashtbl.replace proposal cu e;
            if Uf.size uf e.v < sigma && not (Hashtbl.mem proposal cv) then
              Hashtbl.replace proposal cv e
          end
        end)
      (Graph.edges g);
    (* Greedy maximal matching on small-small proposals, then unmatched
       small clusters re-add theirs. *)
    let matched = Hashtbl.create 16 in
    let selected = ref [] in
    Hashtbl.iter
      (fun _ (e : Graph.edge) ->
        let cu = Uf.find uf e.u and cv = Uf.find uf e.v in
        if
          Uf.size uf e.u < sigma && Uf.size uf e.v < sigma
          && (not (Hashtbl.mem matched cu))
          && not (Hashtbl.mem matched cv)
        then begin
          Hashtbl.replace matched cu ();
          Hashtbl.replace matched cv ();
          selected := e :: !selected
        end)
      proposal;
    Hashtbl.iter
      (fun c (e : Graph.edge) ->
        if not (Hashtbl.mem matched c) then selected := e :: !selected)
      proposal;
    List.iter
      (fun (e : Graph.edge) ->
        if Uf.union uf e.u e.v then progress := true)
      !selected
  done;
  uf, !iterations

(* ------------------------------------------------------------------ *)
(* The Step 6 fact engine: sets l_C and l_e, closed under the path     *)
(* rule (a label seen in two clusters marks the connecting path) and   *)
(* the coupling rule (labels sharing an edge are identified).          *)
(* ------------------------------------------------------------------ *)

type facts = {
  lc : (int * int, unit) Hashtbl.t;  (** (cluster, label) *)
  le : (int * int, unit) Hashtbl.t;  (** (fc-edge index, label) *)
}

type structure = {
  fc_adj : (int, (int * int) list) Hashtbl.t;
      (** cluster -> (neighbor cluster, fc-edge index) *)
  n_fc : int;
}

let facts_create () = { lc = Hashtbl.create 64; le = Hashtbl.create 64 }

let fc_path st a b =
  (* BFS in the cluster forest; returns (edges, inner clusters) or None. *)
  if a = b then Some ([], [])
  else begin
    let prev = Hashtbl.create 16 in
    let q = Queue.create () in
    Queue.add a q;
    Hashtbl.replace prev a (-1, -1);
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let c = Queue.pop q in
      List.iter
        (fun (c', e) ->
          if not (Hashtbl.mem prev c') then begin
            Hashtbl.replace prev c' (c, e);
            if c' = b then found := true else Queue.add c' q
          end)
        (Option.value ~default:[] (Hashtbl.find_opt st.fc_adj c))
    done;
    if not !found then None
    else begin
      let rec walk c edges inner =
        let p, e = Hashtbl.find prev c in
        if p = -1 then edges, inner
        else walk p (e :: edges) (if p = a then inner else p :: inner)
      in
      Some (walk b [] [])
    end
  end

(* Apply one (cluster, label) fact; returns whether anything changed.
   All consequences run through a worklist so the fixpoint is reached
   regardless of arrival order. *)
let facts_apply st facts (c0, lam0) =
  let changed = ref false in
  let work = Queue.create () in
  let add_lc c lam =
    if not (Hashtbl.mem facts.lc (c, lam)) then begin
      Hashtbl.replace facts.lc (c, lam) ();
      changed := true;
      Queue.add (`Lc (c, lam)) work
    end
  in
  let add_le e lam =
    if not (Hashtbl.mem facts.le (e, lam)) then begin
      Hashtbl.replace facts.le (e, lam) ();
      changed := true;
      Queue.add (`Le (e, lam)) work
    end
  in
  add_lc c0 lam0;
  while not (Queue.is_empty work) do
    match Queue.pop work with
    | `Lc (c, lam) ->
        (* Path rule: lam already known in another cluster marks the
           connecting path. *)
        let others =
          Hashtbl.fold
            (fun (c', l) () acc -> if l = lam && c' <> c then c' :: acc else acc)
            facts.lc []
        in
        List.iter
          (fun c' ->
            match fc_path st c c' with
            | None -> ()
            | Some (edges, inner) ->
                List.iter (fun e -> add_le e lam) edges;
                List.iter (fun c'' -> add_lc c'' lam) inner)
          others
    | `Le (e, lam) ->
        (* Coupling rule: labels sharing an edge are identified. *)
        let partners =
          Hashtbl.fold
            (fun (e', l) () acc -> if e' = e && l <> lam then l :: acc else acc)
            facts.le []
        in
        List.iter
          (fun lam' ->
            let spread a b =
              (* wherever a appears, add b *)
              let edges =
                Hashtbl.fold
                  (fun (e', l) () acc -> if l = a then e' :: acc else acc)
                  facts.le []
              in
              List.iter (fun e' -> add_le e' b) edges;
              let clusters =
                Hashtbl.fold
                  (fun (c', l) () acc -> if l = a then c' :: acc else acc)
                  facts.lc []
              in
              List.iter (fun c' -> add_lc c' b) clusters
            in
            spread lam lam';
            spread lam' lam)
          partners
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* The Lemma F.8 protocol: every node floods its (cluster, label)       *)
(* facts up the BFS tree; a shadow copy of "what my parent learned      *)
(* from me" suppresses redundant messages.                              *)
(* ------------------------------------------------------------------ *)

type node_state = {
  is_root : bool;
  mine : facts;
  shadow : facts;
  log : (int * int) list;  (** root: state-changing messages, reversed *)
}

let label_flood_protocol g ~tree ~structure ~initial :
    (node_state, int * int) Sim.flat_protocol =
  let n = Graph.n g in
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let mine = facts_create () in
        let log = ref [] in
        List.iter
          (fun fact ->
            if facts_apply structure mine fact then log := fact :: !log)
          (initial v);
        {
          is_root = v = tree.Bfs.root;
          mine;
          shadow = facts_create ();
          log = !log;
        });
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let log = ref st.log in
        for i = 0 to Sim.inbox_len inbox - 1 do
          let fact = Sim.inbox_msg inbox i in
          if facts_apply structure st.mine fact then log := fact :: !log
        done;
        let st = { st with log = !log } in
        if v <> tree.Bfs.root then begin
          (* Send one message that would still change the parent's
             view of our contribution. *)
          let candidate =
            Hashtbl.fold
              (fun (c, lam) () acc ->
                match acc with
                | Some _ -> acc
                | None ->
                    if Hashtbl.mem st.shadow.lc (c, lam) then None
                    else Some (c, lam))
              st.mine.lc None
          in
          match candidate with
          | Some fact ->
              ignore (facts_apply structure st.shadow fact);
              emit ~dst:tree.Bfs.parent.(v) fact
          | None -> ()
        end;
        st);
    (* A done node has no fact its parent lacks (the root sends none),
       so a step with no mail sends nothing and keeps the state. *)
    fp_is_done =
      (fun st ->
        st.is_root
        || Hashtbl.fold
             (fun (c, lam) () acc ->
               acc && Hashtbl.mem st.shadow.lc (c, lam))
             st.mine.lc true);
    fp_msg_bits = (fun _ -> 2 * Bitsize.id_bits ~n);
  }

let label_flood ?(env = Sim.default_env) g ~tree ~structure ~initial =
  (* The fact tables are mutable and take no recovery contract, so a
     hardened run masks crash-free plans only. *)
  fst (Fault.sim_run ~env g (label_flood_protocol g ~tree ~structure ~initial))

(* ------------------------------------------------------------------ *)

let run ?(env = Sim.default_env) inst ~tree ~f ~sigma =
  let g = inst.Instance.graph in
  let n = Graph.n g in
  let m = Graph.m g in
  if not (Instance.is_forest g f) then invalid_arg "Pruning.run: not a forest";
  if not (Instance.is_feasible inst f) then invalid_arg "Pruning.run: infeasible";
  (* Step 1: make the label set global over the caller's BFS tree. *)
  let label_witnesses =
    Tree_ops.upcast_dedup ~env g ~tree
      ~items:(fun v ->
        if inst.Instance.labels.(v) >= 0 then [ inst.Instance.labels.(v) ]
        else [])
      ~key:Fun.id
      ~bits:(fun _ -> Bitsize.id_bits ~n)
  in
  Tree_ops.broadcast ~env g ~tree ~items:label_witnesses
    ~bits:(fun _ -> Bitsize.id_bits ~n);
  (* Step 3: clusters (Lemma F.7). *)
  let cuf, iterations = grow_clusters ~env g f sigma in
  Sim.charge env
    (Printf.sprintf
       "F.3: cluster growing, %d iterations: matching ([6], Lemma F.7)"
       iterations)
    ((iterations * 4 * ceil_log2 (Int.max 2 sigma)) + 8);
  (* Step 4: the contracted cluster forest, made global. *)
  let fc_edges =
    Array.to_list (Graph.edges g)
    |> List.filter (fun (e : Graph.edge) ->
           f.(e.id) && Uf.find cuf e.u <> Uf.find cuf e.v)
  in
  let n_fc = List.length fc_edges in
  let fc_index = Hashtbl.create 16 in
  List.iteri (fun i (e : Graph.edge) -> Hashtbl.replace fc_index e.id i) fc_edges;
  let structure =
    let fc_adj = Hashtbl.create 16 in
    List.iteri
      (fun i (e : Graph.edge) ->
        let cu = Uf.find cuf e.u and cv = Uf.find cuf e.v in
        Hashtbl.replace fc_adj cu
          ((cv, i) :: Option.value ~default:[] (Hashtbl.find_opt fc_adj cu));
        Hashtbl.replace fc_adj cv
          ((cu, i) :: Option.value ~default:[] (Hashtbl.find_opt fc_adj cv)))
      fc_edges;
    { fc_adj; n_fc }
  in
  let cluster_count =
    let seen = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      Hashtbl.replace seen (Uf.find cuf v) ()
    done;
    Hashtbl.length seen
  in
  (* Each node's forest edges as cluster pairs, held at the edge's [u]
     endpoint in ascending edge order: one pass over [fc_edges], consing
     from the back. *)
  let fc_items = Array.make n [] in
  List.iter
    (fun (e : Graph.edge) ->
      fc_items.(e.u) <- (Uf.find cuf e.u, Uf.find cuf e.v) :: fc_items.(e.u))
    (List.rev fc_edges);
  ignore
    (Tree_ops.upcast ~env g ~tree ~items:(Array.get fc_items)
       ~bits:(fun _ -> 2 * Bitsize.id_bits ~n));
  let fc_pairs =
    List.map (fun (e : Graph.edge) -> Uf.find cuf e.u, Uf.find cuf e.v) fc_edges
  in
  Tree_ops.broadcast ~env g ~tree ~items:fc_pairs
    ~bits:(fun _ -> 2 * Bitsize.id_bits ~n);
  (* Steps 5-6: the label flood (Lemma F.8), genuinely simulated. *)
  let initial v =
    if inst.Instance.labels.(v) >= 0 then
      [ Uf.find cuf v, inst.Instance.labels.(v) ]
    else []
  in
  let states = label_flood ~env g ~tree ~structure ~initial in
  let root_facts = states.(tree.Bfs.root).mine in
  (* Step 7: broadcast the root's state-changing log (same encoding). *)
  let root_log = List.rev states.(tree.Bfs.root).log in
  Tree_ops.broadcast ~env g ~tree ~items:root_log
    ~bits:(fun _ -> 2 * Bitsize.id_bits ~n);
  (* Step 8: inter-cluster edges with a nonempty label set. *)
  let pruned = Array.make m false in
  List.iter
    (fun (e : Graph.edge) ->
      let i = Hashtbl.find fc_index e.id in
      let nonempty =
        Hashtbl.fold
          (fun (e', _) () acc -> acc || e' = i)
          root_facts.le false
      in
      if nonempty then pruned.(e.id) <- true)
    fc_edges;
  (* Step 9: endpoints of selected FC edges inherit the edge's labels. *)
  let extra_labels : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let add_node_label v lam =
    Hashtbl.replace extra_labels v
      (lam :: Option.value ~default:[] (Hashtbl.find_opt extra_labels v))
  in
  List.iter
    (fun (e : Graph.edge) ->
      let i = Hashtbl.find fc_index e.id in
      Hashtbl.iter
        (fun (e', lam) () ->
          if e' = i then begin
            add_node_label e.u lam;
            add_node_label e.v lam
          end)
        root_facts.le)
    fc_edges;
  let node_labels v =
    let own = if inst.Instance.labels.(v) >= 0 then [ inst.Instance.labels.(v) ] else [] in
    own @ Option.value ~default:[] (Hashtbl.find_opt extra_labels v)
  in
  (* Label classes: labels identified by the coupling rule must be treated
     as one demand (they share edges of the minimal solution).  The
     union-find runs over dense label ids; [label_class] names a class by
     its representative label. *)
  let label_value, label_id = Instance.label_ids inst in
  let luf = Uf.create (Array.length label_value) in
  Hashtbl.iter
    (fun (e, lam) () ->
      Hashtbl.iter
        (fun (e', lam') () ->
          if e = e' then ignore (Uf.union luf (label_id lam) (label_id lam')))
        root_facts.le)
    root_facts.le;
  let label_class lam = label_value.(Uf.find luf (label_id lam)) in
  (* Step 10: minimal intra-cluster subtrees, by the Lemma F.6 mark/unmark
     protocol, genuinely simulated: holders flood their label classes up
     the cluster trees (marking edges); roots then push "unmark" down any
     branch whose subtree holds only one witness of a class.  The result
     is cross-checked below against the definitional per-edge split test,
     which remains the output. *)
  let cluster_parent =
    (* Root each cluster's F-subtree at its leader (max node id). *)
    let cp = Array.make n (-1) in
    let adj_f = Array.make n [] in
    Array.iter
      (fun (e : Graph.edge) ->
        if f.(e.id) && Uf.find cuf e.u = Uf.find cuf e.v then begin
          adj_f.(e.u) <- e.v :: adj_f.(e.u);
          adj_f.(e.v) <- e.u :: adj_f.(e.v)
        end)
      (Graph.edges g);
    let visited = Array.make n false in
    let roots = Hashtbl.create 16 in
    for v = 0 to n - 1 do
      let r = Uf.find cuf v in
      match Hashtbl.find_opt roots r with
      | Some best when best >= v -> ()
      | _ -> Hashtbl.replace roots r v
    done;
    Hashtbl.iter
      (fun _ root ->
        let q = Queue.create () in
        Queue.add root q;
        visited.(root) <- true;
        while not (Queue.is_empty q) do
          let v = Queue.pop q in
          List.iter
            (fun u ->
              if not visited.(u) then begin
                visited.(u) <- true;
                cp.(u) <- v;
                Queue.add u q
              end)
            adj_f.(v)
        done)
      roots;
    cp
  in
  let class_labels v =
    List.map label_class (node_labels v)
    |> List.sort_uniq compare
  in
  let f6_marked =
    F6_protocol.run ~env g ~parent:cluster_parent ~labels:class_labels
  in
  let intra =
    Array.to_list (Graph.edges g)
    |> List.filter (fun (e : Graph.edge) ->
           f.(e.id) && Uf.find cuf e.u = Uf.find cuf e.v)
  in
  List.iter
    (fun (e : Graph.edge) ->
      (* Split test within the forest f minus e, restricted to e's cluster. *)
      let uf2 = Uf.create n in
      Array.iter
        (fun (e' : Graph.edge) ->
          if f.(e'.id) && e'.id <> e.id then ignore (Uf.union uf2 e'.u e'.v))
        (Graph.edges g);
      let cluster = Uf.find cuf e.u in
      (* Holder classes on each side. *)
      let side_classes u =
        let acc = Hashtbl.create 8 in
        for v = 0 to n - 1 do
          if Uf.find cuf v = cluster && Uf.same uf2 v u then
            List.iter
              (fun lam -> Hashtbl.replace acc (label_class lam) ())
              (node_labels v)
        done;
        acc
      in
      let a = side_classes e.u and b = side_classes e.v in
      let needed =
        Hashtbl.fold (fun c () acc -> acc || Hashtbl.mem b c) a false
      in
      (* The protocol and the definitional test must agree edge by edge. *)
      assert (needed = f6_marked.(e.id));
      if needed then pruned.(e.id) <- true)
    intra;
  { pruned; clusters = cluster_count; cluster_edges = n_fc }
