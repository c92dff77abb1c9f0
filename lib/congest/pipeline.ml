module Uf = Dsf_util.Union_find

type 'k item = { key : 'k; a : int; b : int }

let item_cmp cmp i1 i2 =
  let c = cmp i1.key i2.key in
  if c <> 0 then c else compare (i1.a, i1.b) (i2.a, i2.b)

let select_forest ~vn ~pre ~cmp items =
  let uf = Uf.create vn in
  List.iter (fun (x, y) -> ignore (Uf.union uf x y)) pre;
  let sorted = List.sort (item_cmp cmp) items in
  List.filter (fun it -> Uf.union uf it.a it.b) sorted

type 'k msg = Item of 'k item | Done

(* Each child delivers its items in ascending order and closes its stream
   with [Done].  A node may emit the minimum across its own remaining items
   and the child queue heads only once every unfinished child has a pending
   item — then that minimum is a lower bound on everything still to come, so
   the node's own output stream is ascending too (inductively).  Cycle-
   closing items are discarded locally; discards are free local computation,
   so several can happen in one round, but at most one item is sent. *)
type 'k state = {
  own : 'k item list;  (** ascending *)
  queues : (int, 'k item Queue.t) Hashtbl.t;  (** per-child FIFO *)
  open_children : (int, unit) Hashtbl.t;  (** children not yet Done *)
  uf : Uf.t;
  accepted : 'k item list;  (** root only; reversed *)
  sent_done : bool;
}

(* Native flat-engine state.  Child queues live in a per-node array indexed
   through a global child -> index map (each node has one parent, so one
   global array serves every node), and three counters make the per-step
   checks O(1): [p_open] (children not yet Done), [p_empty_open] (open
   children whose queue is empty — the node is stalled iff > 0), and
   [p_queued] (total buffered items — drained iff own, open and queued are
   all zero).  Everything is mutated in place, so a step allocates only the
   queue cells of newly arrived items.

   The completion test is the key difference from the classic protocol:
   a node reports done when it is *stalled* or when it is drained and has
   closed its stream ([sent_done], or is the root).  Every configuration
   reported done really is a no-op on an empty inbox, so the port declares
   [wake = Some Sim.never] and the sparse scheduler keeps the active list
   at the item/Done wavefront — the classic protocol's [not sent_done]
   wake hook steps every unfinished node every round instead (O(n) per
   round on a path).  The message schedule is unchanged: the extra nodes
   the classic protocol steps are exactly the stalled/drained no-ops, so
   rounds, messages, bits, observer traces and the accepted list are
   bit-identical (differential suite enforced). *)
type 'k fstate = {
  mutable p_own : 'k item list;  (** ascending *)
  p_qs : 'k item Queue.t array;  (** per-child FIFO, child scan order *)
  p_openf : bool array;  (** child not yet Done *)
  mutable p_open : int;
  mutable p_empty_open : int;
  mutable p_queued : int;
  p_uf : Uf.t;
  mutable p_acc : 'k item list;  (** root only; reversed *)
  mutable p_sent_done : bool;
  p_root : bool;
}

let filtered_upcast_flat ~(tree : Bfs.tree) ~vn ~pre ~items ~icmp ~bits :
    ('k fstate, 'k msg) Sim.flat_protocol =
  let n = Array.length tree.parent in
  (* Global child -> index-in-parent's-arrays map.  The scan order below is
     the [tree.children] list order; the classic protocol scans a Hashtbl
     instead, so tie-breaking between *structurally distinct items that
     compare equal* could differ — no caller produces such items ([cmp]
     total up to endpoint tie-break), and the differential suite pins the
     equivalence on that domain. *)
  let child_idx = Array.make n (-1) in
  Array.iteri
    (fun _v cs -> List.iteri (fun i c -> child_idx.(c) <- i) cs)
    tree.children;
  let stalled st = st.p_empty_open > 0 in
  let drained st =
    (match st.p_own with [] -> true | _ :: _ -> false)
    && st.p_open = 0 && st.p_queued = 0
  in
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let uf = Uf.create vn in
        List.iter (fun (x, y) -> ignore (Uf.union uf x y)) pre;
        let nc = List.length tree.children.(v) in
        {
          p_own = List.sort icmp (items v);
          p_qs = Array.init nc (fun _ -> Queue.create ());
          p_openf = Array.make nc true;
          p_open = nc;
          p_empty_open = nc;
          p_queued = 0;
          p_uf = uf;
          p_acc = [];
          p_sent_done = false;
          p_root = v = tree.root;
        });
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let k = Sim.inbox_len inbox in
        for i = 0 to k - 1 do
          let j = child_idx.(Sim.inbox_src inbox i) in
          match Sim.inbox_msg inbox i with
          | Item it ->
              let q = st.p_qs.(j) in
              if Queue.is_empty q && st.p_openf.(j) then
                st.p_empty_open <- st.p_empty_open - 1;
              Queue.add it q;
              st.p_queued <- st.p_queued + 1
          | Done ->
              (* Guarded for idempotence: a duplicated Done must not skew
                 the counters (the classic Hashtbl.remove is idempotent). *)
              if st.p_openf.(j) then begin
                st.p_openf.(j) <- false;
                st.p_open <- st.p_open - 1;
                if Queue.is_empty st.p_qs.(j) then
                  st.p_empty_open <- st.p_empty_open - 1
              end
        done;
        if stalled st then st
        else begin
          (* Repeatedly extract the global minimum; discard cycle-closers
             for free; send (or accept, at the root) the first survivor.
             Own head first, then child queue heads, first-found wins
             ties — the classic scan policy. *)
          let nq = Array.length st.p_qs in
          let rec extract () =
            let best_it = ref None and best_j = ref (-1) in
            (match st.p_own with
            | it :: _ -> best_it := Some it
            | [] -> ());
            for j = 0 to nq - 1 do
              match Queue.peek_opt st.p_qs.(j) with
              | Some it -> begin
                  match !best_it with
                  | Some b when icmp b it <= 0 -> ()
                  | _ ->
                      best_it := Some it;
                      best_j := j
                end
              | None -> ()
            done;
            match !best_it with
            | None -> None
            | Some it ->
                if !best_j < 0 then st.p_own <- List.tl st.p_own
                else begin
                  let q = st.p_qs.(!best_j) in
                  ignore (Queue.pop q);
                  st.p_queued <- st.p_queued - 1;
                  if Queue.is_empty q && st.p_openf.(!best_j) then
                    st.p_empty_open <- st.p_empty_open + 1
                end;
                if Uf.same st.p_uf it.a it.b then
                  (* Extracting from a child queue may stall us again: only
                     continue while no open child queue is empty. *)
                  if stalled st then None else extract ()
                else begin
                  ignore (Uf.union st.p_uf it.a it.b);
                  Some it
                end
          in
          (match extract () with
          | Some it ->
              if st.p_root then st.p_acc <- it :: st.p_acc
              else emit ~dst:tree.parent.(v) (Item it)
          | None ->
              (* Nothing left: if fully drained and all children Done,
                 close our own stream. *)
              if drained st && (not st.p_sent_done) && not st.p_root then begin
                st.p_sent_done <- true;
                emit ~dst:tree.parent.(v) Done
              end);
          st
        end);
    fp_is_done =
      (fun st -> stalled st || (drained st && (st.p_sent_done || st.p_root)));
    fp_msg_bits = (function Item it -> bits it | Done -> 1);
    fp_wake = Some Sim.never;
  }

let filtered_upcast ?(env = Sim.default_env) ?stop_at_root g
    ~(tree : Bfs.tree) ~vn ~pre ~items ~cmp ~bits =
  let icmp = item_cmp cmp in
  Sim.span env "filtered_upcast" @@ fun () ->
  if Sim.native_ports env then begin
    let halt =
      Option.map
        (fun pred states -> pred (List.rev states.(tree.root).p_acc))
        stop_at_root
    in
    let states, stats =
      Sim.run_flat ?halt ~env g
        (filtered_upcast_flat ~tree ~vn ~pre ~items ~icmp ~bits)
    in
    List.rev states.(tree.root).p_acc, stats
  end
  else begin
  let proto : ('k state, 'k msg) Sim.protocol =
    {
      init =
        (fun view ->
          let v = view.Sim.node in
          let uf = Uf.create vn in
          List.iter (fun (x, y) -> ignore (Uf.union uf x y)) pre;
          let queues = Hashtbl.create 4 in
          let open_children = Hashtbl.create 4 in
          List.iter
            (fun c ->
              Hashtbl.replace queues c (Queue.create ());
              Hashtbl.replace open_children c ())
            tree.children.(v);
          {
            own = List.sort icmp (items v);
            queues;
            open_children;
            uf;
            accepted = [];
            sent_done = false;
          });
      step =
        (fun view ~round:_ st ~inbox ->
          let v = view.Sim.node in
          List.iter
            (fun (sender, m) ->
              match m with
              | Item it -> Queue.add it (Hashtbl.find st.queues sender)
              | Done -> Hashtbl.remove st.open_children sender)
            inbox;
          (* Is every unfinished child's queue non-empty? *)
          let stalled =
            Hashtbl.fold
              (fun c () acc ->
                acc || Queue.is_empty (Hashtbl.find st.queues c))
              st.open_children false
          in
          if stalled then st, []
          else begin
            (* Repeatedly extract the global minimum; discard cycle-closers
               for free; send (or accept, at the root) the first survivor. *)
            let rec extract st =
              let best = ref None in
              (match st.own with
              | it :: _ -> best := Some (it, `Own)
              | [] -> ());
              Hashtbl.iter
                (fun c q ->
                  match Queue.peek_opt q with
                  | Some it -> begin
                      match !best with
                      | Some (b, _) when icmp b it <= 0 -> ()
                      | _ -> best := Some (it, `Child c)
                    end
                  | None -> ())
                st.queues;
              match !best with
              | None -> st, None
              | Some (it, origin) ->
                  let st =
                    match origin with
                    | `Own -> { st with own = List.tl st.own }
                    | `Child c ->
                        ignore (Queue.pop (Hashtbl.find st.queues c));
                        st
                  in
                  (* Extracting from a child queue may stall us again: only
                     continue extracting while no open child queue is empty. *)
                  if Uf.same st.uf it.a it.b then begin
                    let stalled_now =
                      Hashtbl.fold
                        (fun c () acc ->
                          acc || Queue.is_empty (Hashtbl.find st.queues c))
                        st.open_children false
                    in
                    if stalled_now then st, None else extract st
                  end
                  else begin
                    ignore (Uf.union st.uf it.a it.b);
                    st, Some it
                  end
            in
            let st, to_send = extract st in
            match to_send with
            | Some it ->
                if v = tree.root then
                  { st with accepted = it :: st.accepted }, []
                else st, [ tree.parent.(v), Item it ]
            | None ->
                (* Nothing left: if fully drained and all children Done,
                   close our own stream. *)
                let drained =
                  st.own = []
                  && Hashtbl.length st.open_children = 0
                  && Hashtbl.fold
                       (fun _ q acc -> acc && Queue.is_empty q)
                       st.queues true
                in
                if drained && (not st.sent_done) && v <> tree.root then
                  { st with sent_done = true }, [ tree.parent.(v), Done ]
                else st, []
          end);
      is_done =
        (fun st ->
          st.own = []
          && Hashtbl.length st.open_children = 0
          && Hashtbl.fold (fun _ q acc -> acc && Queue.is_empty q) st.queues true);
      msg_bits =
        (function Item it -> bits it | Done -> 1);
      (* A drained node still owes its parent a [Done] one round after its
         last item, which [is_done] does not capture — so wake on
         [not sent_done] (the root never closes its stream and simply
         no-ops; every other silent configuration is mail-driven). *)
      wake = Some (fun _ ~round:_ st -> not st.sent_done);
    }
  in
  let halt =
    Option.map
      (fun pred states -> pred (List.rev states.(tree.root).accepted))
      stop_at_root
  in
  (* Recovery contract: the classic state owns mutable structure (child
     queues, the open-children set, the union-find), so the checkpoint
     snapshot deep-copies all of it; [own]/[accepted] are immutable
     lists.  [state_bits] counts the buffered items plus the union-find
     image, one word each. *)
  let recovery =
    {
      Fault.snapshot =
        (fun st ->
          let queues = Hashtbl.create (max 4 (Hashtbl.length st.queues)) in
          Hashtbl.iter
            (fun c q -> Hashtbl.replace queues c (Queue.copy q))
            st.queues;
          {
            st with
            queues;
            open_children = Hashtbl.copy st.open_children;
            uf = Uf.copy st.uf;
          });
      state_bits =
        (fun st ->
          let queued =
            Hashtbl.fold (fun _ q acc -> acc + Queue.length q) st.queues 0
          in
          63 * (2 + vn + queued + List.length st.own));
    }
  in
  let states, stats = Fault.sim_run ?halt ~env ~recovery g proto in
  List.rev states.(tree.root).accepted, stats
  end
