module Uf = Dsf_util.Union_find

type 'k item = { key : 'k; a : int; b : int }

let item_cmp cmp i1 i2 =
  let c = cmp i1.key i2.key in
  if c <> 0 then c
  else
    let c = Int.compare i1.a i2.a in
    if c <> 0 then c else Int.compare i1.b i2.b

let select_forest ~vn ~pre ~cmp items =
  let uf = Uf.create vn in
  List.iter (fun (x, y) -> ignore (Uf.union uf x y)) pre;
  let sorted = List.sort (item_cmp cmp) items in
  List.filter (fun it -> Uf.union uf it.a it.b) sorted

(* An item with its message size, computed once when the item enters the
   pipeline at its holder.  Nodes buffer the [Item] message an item
   arrived in, so every hop forwards the same value and none boxes a new
   one. *)
type 'k sized = { item : 'k item; ibits : int }

type 'k msg = Item of 'k sized | Done

(* The item of a buffered message; buffers hold [Item]s only. *)
let item_of = function
  | Item it -> it.item
  | Done -> invalid_arg "Pipeline: Done in an item buffer"

(* Each child delivers its items in ascending order and closes its stream
   with [Done].  A node may emit the minimum across its own remaining items
   and the child queue heads only once every unfinished child has a pending
   item — then that minimum is a lower bound on everything still to come, so
   the node's own output stream is ascending too (inductively).  Cycle-
   closing items are discarded locally; discards are free local computation,
   so several can happen in one round, but at most one item is sent. *)
(* Node state.  Child queues live in a per-node array indexed
   through a global child -> index map (each node has one parent, so one
   global array serves every node), and three counters make the per-step
   checks O(1): [p_open] (children not yet Done), [p_empty_open] (open
   children whose queue is empty — the node is stalled iff > 0), and
   [p_queued] (total buffered items — drained iff own, open and queued are
   all zero).  Everything is mutated in place, so a step allocates only the
   queue cells of newly arrived items.  The union-find is one parent
   array: the [pre] template compressed to its roots, copied on the
   node's first extraction (so a node that never handles an item never
   builds one), then linked root to root with path halving.  Only its
   connectivity answers are read, so they and every accept/discard
   decision are those of a rank-balanced union-find.

   A node reports done when it is *stalled* or when it is drained and has
   closed its stream ([sent_done], or is the root).  Every configuration
   reported done really is a no-op on an empty inbox, so the engine's
   active list stays at the item/Done wavefront. *)
type 'k fstate = {
  mutable p_own : 'k msg list;  (** ascending *)
  p_qs : 'k msg Queue.t array;  (** per-child FIFO, child scan order *)
  p_openf : bool array;  (** child not yet Done *)
  mutable p_open : int;
  mutable p_empty_open : int;
  mutable p_queued : int;
  mutable p_uf : int array;  (** parents; empty until the first extraction *)
  mutable p_acc : 'k item list;  (** root only; reversed *)
  mutable p_sent_done : bool;
  p_root : bool;
}

(* Root of [x] in a parent array, halving the path on the way. *)
let rec uf_root (p : int array) x =
  let q = p.(x) in
  if q = x then x
  else begin
    let g = p.(q) in
    p.(x) <- g;
    if g = q then q else uf_root p g
  end

let filtered_upcast_flat ~(tree : Bfs.tree) ~vn ~pre ~items ~icmp ~bits :
    ('k fstate, 'k msg) Sim.flat_protocol =
  let n = Array.length tree.parent in
  (* Global child -> index-in-parent's-arrays map.  The scan order below is
     the [tree.children] list order, which breaks ties between items that
     compare equal; no caller produces such items ([cmp] is total up to
     the endpoint tie-break). *)
  let child_idx = Array.make n (-1) in
  Array.iteri
    (fun _v cs -> List.iteri (fun i c -> child_idx.(c) <- i) cs)
    tree.children;
  let template = Uf.create vn in
  List.iter (fun (x, y) -> ignore (Uf.union template x y)) pre;
  let roots = Array.init vn (Uf.find template) in
  let uf_of st =
    if Array.length st.p_uf = 0 then st.p_uf <- Array.copy roots;
    st.p_uf
  in
  let stalled st = st.p_empty_open > 0 in
  let drained st =
    (match st.p_own with [] -> true | _ :: _ -> false)
    && st.p_open = 0 && st.p_queued = 0
  in
  (* Items are named by their source: [-1] for the own head, [j] for the
     head of child queue [j]. *)
  let head st j =
    if j < 0 then List.hd st.p_own else Queue.peek st.p_qs.(j)
  in
  let pop st j =
    if j < 0 then st.p_own <- List.tl st.p_own
    else begin
      let q = st.p_qs.(j) in
      ignore (Queue.pop q);
      st.p_queued <- st.p_queued - 1;
      if Queue.is_empty q && st.p_openf.(j) then
        st.p_empty_open <- st.p_empty_open + 1
    end
  in
  (* Repeatedly extract the global minimum and discard cycle-closers for
     free; return the source of the first survivor, left at its head to
     be sent (or accepted, at the root), with its endpoints already
     joined; or [-2] if none survives.  Own head first, then child queue
     heads, first-found wins ties. *)
  let rec extract st =
    let best = ref (match st.p_own with _ :: _ -> -1 | [] -> -2) in
    for j = 0 to Array.length st.p_qs - 1 do
      let q = st.p_qs.(j) in
      if
        (not (Queue.is_empty q))
        && (!best = -2
           || icmp (item_of (head st !best)) (item_of (Queue.peek q)) > 0)
      then best := j
    done;
    let j = !best in
    if j = -2 then j
    else begin
      let { a; b; _ } = item_of (head st j) in
      let uf = uf_of st in
      let ra = uf_root uf a in
      let rb = uf_root uf b in
      if ra = rb then begin
        pop st j;
        (* Extracting from a child queue may stall us again: only
           continue while no open child queue is empty. *)
        if stalled st then -2 else extract st
      end
      else begin
        uf.(rb) <- ra;
        j
      end
    end
  in
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let nc = List.length tree.children.(v) in
        {
          p_own =
            List.sort icmp (items v)
            |> List.map (fun item -> Item { item; ibits = bits item });
          p_qs = Array.init nc (fun _ -> Queue.create ());
          p_openf = Array.make nc true;
          p_open = nc;
          p_empty_open = nc;
          p_queued = 0;
          p_uf = [||];
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
          | Item _ as m ->
              let q = st.p_qs.(j) in
              if Queue.is_empty q && st.p_openf.(j) then
                st.p_empty_open <- st.p_empty_open - 1;
              Queue.add m q;
              st.p_queued <- st.p_queued + 1
          | Done ->
              (* Guarded for idempotence: a duplicated Done must not skew
                 the counters. *)
              if st.p_openf.(j) then begin
                st.p_openf.(j) <- false;
                st.p_open <- st.p_open - 1;
                if Queue.is_empty st.p_qs.(j) then
                  st.p_empty_open <- st.p_empty_open - 1
              end
        done;
        if stalled st then st
        else begin
          let j = extract st in
          if j <> -2 then begin
            let m = head st j in
            pop st j;
            if st.p_root then st.p_acc <- item_of m :: st.p_acc
            else emit ~dst:tree.parent.(v) m
          end
          else if drained st && (not st.p_sent_done) && not st.p_root
          then begin
            (* Nothing left, fully drained and all children Done: close
               our own stream. *)
            st.p_sent_done <- true;
            emit ~dst:tree.parent.(v) Done
          end;
          st
        end);
    fp_is_done =
      (fun st -> stalled st || (drained st && (st.p_sent_done || st.p_root)));
    fp_msg_bits = (function Item it -> it.ibits | Done -> 1);
  }

let filtered_upcast ?(env = Sim.default_env) ?stop_at_root g
    ~(tree : Bfs.tree) ~vn ~pre ~items ~cmp ~bits =
  let icmp = item_cmp cmp in
  Sim.span env "filtered_upcast" @@ fun () ->
  (* The predicate sees each accepted prefix once: the engine polls [halt]
     every round, but the root's list changes only when it accepts. *)
  let halt =
    Option.map
      (fun pred ->
        let seen = ref [] and stop = ref false in
        fun states ->
          let acc = states.(tree.root).p_acc in
          if acc != !seen then begin
            seen := acc;
            stop := pred (List.rev acc)
          end;
          !stop)
      stop_at_root
  in
  (* Recovery contract: the state owns mutable structure (child queues,
     the open flags, the union-find), so the checkpoint snapshot
     deep-copies all of it; [p_own]/[p_acc] are immutable lists.
     [state_bits] counts the buffered items plus the union-find image,
     one word each, whether or not the node has built its copy yet. *)
  let recovery =
    {
      Fault.snapshot =
        (fun st ->
          {
            st with
            p_qs = Array.map Queue.copy st.p_qs;
            p_openf = Array.copy st.p_openf;
            p_uf = Array.copy st.p_uf;
          });
      state_bits =
        (fun st -> 63 * (2 + vn + st.p_queued + List.length st.p_own));
    }
  in
  let states, _ =
    Fault.sim_run ?halt ~env ~recovery g
      (filtered_upcast_flat ~tree ~vn ~pre ~items ~icmp ~bits)
  in
  List.rev states.(tree.root).p_acc
