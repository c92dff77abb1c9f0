module ISet = Set.Make (Int)

(* Node state for {!upcast}: the forward queue (O(1) push/pop) and the
   root's arrival log, both mutated in place, so a step allocates only
   the queue cells of newly arrived items.  Existing pending items go
   first, then arrivals in inbox order, one item to the parent per
   round.  The root's own items need no transport.  Each item is sized
   once, at its holder, and travels with its size, so no hop calls
   [bits] again. *)
type 'a up_fstate = { uq : ('a * int) Queue.t; mutable u_recvd : 'a list }

let upcast_flat ~(tree : Bfs.tree) ~items ~bits :
    ('a up_fstate, 'a * int) Sim.flat_protocol =
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let mine = items v in
        let uq = Queue.create () in
        if v = tree.root then { uq; u_recvd = List.rev mine }
        else begin
          List.iter (fun it -> Queue.add (it, bits it) uq) mine;
          { uq; u_recvd = [] }
        end);
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let k = Sim.inbox_len inbox in
        if v = tree.root then begin
          for i = 0 to k - 1 do
            st.u_recvd <- fst (Sim.inbox_msg inbox i) :: st.u_recvd
          done;
          st
        end
        else begin
          for i = 0 to k - 1 do
            Queue.add (Sim.inbox_msg inbox i) st.uq
          done;
          if not (Queue.is_empty st.uq) then
            emit ~dst:tree.parent.(v) (Queue.take st.uq);
          st
        end);
    fp_is_done = (fun st -> Queue.is_empty st.uq);
    fp_msg_bits = snd;
  }

let upcast ?(env = Sim.default_env) g ~(tree : Bfs.tree) ~items ~bits =
  Sim.span env "upcast" @@ fun () ->
  let states, _ =
    Fault.sim_run ~env
      ~recovery:
        {
          (Fault.immutable ()) with
          snapshot = (fun st -> { st with uq = Queue.copy st.uq });
        }
      g
      (upcast_flat ~tree ~items ~bits)
  in
  List.rev states.(tree.root).u_recvd

(* Node state for {!upcast_dedup}: {!upcast}'s sized forward queue and
   root log, plus the seen-table of the items kept per key.  An item is
   admitted (queued, or logged at the root) only on its first arrival
   while its key has room. *)
type ('a, 'b) dedup_fstate = {
  dq : ('a * int) Queue.t;
  d_seen : ('b, 'a list) Hashtbl.t;  (** key -> distinct items kept *)
  mutable d_recvd : 'a list;
}

let upcast_dedup_flat ~per_key ~(tree : Bfs.tree) ~items ~key ~bits :
    (('a, 'b) dedup_fstate, 'a * int) Sim.flat_protocol =
  (* Keep an item iff its key has fewer than [per_key] distinct items so
     far and the item itself is new. *)
  let admit seen it =
    let k = key it in
    let kept = Option.value ~default:[] (Hashtbl.find_opt seen k) in
    if List.length kept >= per_key || List.mem it kept then false
    else begin
      Hashtbl.replace seen k (it :: kept);
      true
    end
  in
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let seen = Hashtbl.create 8 in
        let mine = List.filter (admit seen) (items v) in
        let dq = Queue.create () in
        if v = tree.root then { dq; d_seen = seen; d_recvd = List.rev mine }
        else begin
          List.iter (fun it -> Queue.add (it, bits it) dq) mine;
          { dq; d_seen = seen; d_recvd = [] }
        end);
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let k = Sim.inbox_len inbox in
        if v = tree.root then begin
          for i = 0 to k - 1 do
            let it = fst (Sim.inbox_msg inbox i) in
            if admit st.d_seen it then st.d_recvd <- it :: st.d_recvd
          done;
          st
        end
        else begin
          for i = 0 to k - 1 do
            let msg = Sim.inbox_msg inbox i in
            if admit st.d_seen (fst msg) then Queue.add msg st.dq
          done;
          if not (Queue.is_empty st.dq) then
            emit ~dst:tree.parent.(v) (Queue.take st.dq);
          st
        end);
    fp_is_done = (fun st -> Queue.is_empty st.dq);
    fp_msg_bits = snd;
  }

let upcast_dedup ?(env = Sim.default_env) ?(per_key = 1) g ~(tree : Bfs.tree)
    ~items ~key ~bits =
  Sim.span env "upcast_dedup" @@ fun () ->
  let states, _ =
    Fault.sim_run ~env
      ~recovery:
        {
          Fault.snapshot =
            (fun st ->
              {
                dq = Queue.copy st.dq;
                d_seen = Hashtbl.copy st.d_seen;
                d_recvd = st.d_recvd;
              });
          state_bits = (fun st -> 63 * (1 + Hashtbl.length st.d_seen));
        }
      g
      (upcast_dedup_flat ~per_key ~tree ~items ~key ~bits)
  in
  List.rev states.(tree.root).d_recvd

(* Sequential (non-pipelined) upcast: a best-case centralized schedule lets
   each item travel to the root alone; the next item departs only after the
   previous one arrived.  Rounds = sum of the holders' depths — the cost the
   pipelined versions avoid. *)
type 'a seq_state = {
  departures : (int * 'a) list;  (** (round, item) for this node, ascending *)
  s_received : 'a list;  (** root only, reversed *)
}

let upcast_sequential ?(env = Sim.default_env) g ~(tree : Bfs.tree) ~items
    ~bits =
  (* Precompute the departure schedule. *)
  let schedule = Hashtbl.create 16 in
  let clock = ref 0 in
  let root_items = ref [] in
  for v = 0 to Dsf_graph.Graph.n g - 1 do
    List.iter
      (fun it ->
        if v = tree.root then root_items := it :: !root_items
        else begin
          let prev = Option.value ~default:[] (Hashtbl.find_opt schedule v) in
          Hashtbl.replace schedule v ((!clock, it) :: prev);
          clock := !clock + tree.depth.(v)
        end)
      (items v)
  done;
  let proto : ('a seq_state, 'a) Sim.flat_protocol =
    {
      fp_init =
        (fun view ->
          let v = view.Sim.node in
          {
            departures =
              List.rev (Option.value ~default:[] (Hashtbl.find_opt schedule v));
            s_received = (if v = tree.root then !root_items else []);
          });
      fp_step =
        (fun view ~round st ~inbox ~emit ->
          let v = view.Sim.node in
          let k = Sim.inbox_len inbox in
          if v = tree.root then begin
            let received = ref st.s_received in
            for i = 0 to k - 1 do
              received := Sim.inbox_msg inbox i :: !received
            done;
            { st with s_received = !received }
          end
          else begin
            (* Forward anything received, plus any item scheduled now. *)
            for i = 0 to k - 1 do
              emit ~dst:tree.parent.(v) (Sim.inbox_msg inbox i)
            done;
            let due, later =
              List.partition (fun (r, _) -> r <= round) st.departures
            in
            List.iter (fun (_, it) -> emit ~dst:tree.parent.(v) it) due;
            { st with departures = later }
          end);
      (* Scheduled departures keep the node not-done until they are sent, so
         the node steps in every round it may send, clock-driven as it is. *)
      fp_is_done = (fun st -> st.departures = []);
      fp_msg_bits = bits;
    }
  in
  let states, _ =
    Sim.span env "upcast_sequential" (fun () ->
        Fault.sim_run ~env
          ~recovery:
            {
              (Fault.immutable ()) with
              (* One word per pending departure and per item the root
                 holds: the lists grow with the schedule. *)
              state_bits =
                (fun st ->
                  63
                  * (1 + List.length st.departures
                    + List.length st.s_received));
            }
          g proto)
  in
  List.rev states.(tree.root).s_received

(* [emit] of [msg] to each of [dsts] in order, with no closure per call. *)
let rec emit_to_all ~emit msg = function
  | [] -> ()
  | dst :: rest ->
      emit ~dst msg;
      emit_to_all ~emit msg rest

(* Node state for {!broadcast}: the node's forward queue, an int ring
   holding [blen] items from [bq.(bhead)] on, positions wrapping by the
   power-of-two capacity mask.  An item travels as its index in the
   root's list, an immediate int, sized by a table built once at the
   root, so a hop allocates nothing once the node's ring has grown to its
   peak.  One item leaves the queue per round whether or not the node has
   children. *)
type bring = { mutable bq : int array; mutable bhead : int; mutable blen : int }

(* The first push allocates four slots as a literal, which is cheaper
   than [Array.make] (see [Sim.mbuf_push]); a full ring doubles,
   unwrapping its items to the front. *)
let ring_push r x =
  let cap = Array.length r.bq in
  if r.blen = cap then begin
    if cap = 0 then r.bq <- [| 0; 0; 0; 0 |]
    else begin
      let a = Array.make (2 * cap) 0 in
      for i = 0 to cap - 1 do
        a.(i) <- r.bq.((r.bhead + i) land (cap - 1))
      done;
      r.bq <- a
    end;
    r.bhead <- 0
  end;
  r.bq.((r.bhead + r.blen) land (Array.length r.bq - 1)) <- x;
  r.blen <- r.blen + 1

let ring_pop r =
  let x = r.bq.(r.bhead) in
  r.bhead <- (r.bhead + 1) land (Array.length r.bq - 1);
  r.blen <- r.blen - 1;
  x

let broadcast_flat ~(tree : Bfs.tree) ~items ~bits :
    (bring, int) Sim.flat_protocol =
  let sizes = Array.make (List.length items) 0 in
  List.iteri (fun i it -> sizes.(i) <- bits it) items;
  {
    fp_init =
      (fun view ->
        let q = { bq = [||]; bhead = 0; blen = 0 } in
        if view.Sim.node = tree.root then
          for i = 0 to Array.length sizes - 1 do
            ring_push q i
          done;
        q);
    fp_step =
      (fun view ~round:_ q ~inbox ~emit ->
        for i = 0 to Sim.inbox_len inbox - 1 do
          ring_push q (Sim.inbox_msg inbox i)
        done;
        if q.blen > 0 then
          emit_to_all ~emit (ring_pop q) tree.children.(view.Sim.node);
        q);
    fp_is_done = (fun q -> q.blen = 0);
    fp_msg_bits = (fun i -> sizes.(i));
  }

let broadcast ?(env = Sim.default_env) g ~(tree : Bfs.tree) ~items ~bits =
  Sim.span env "broadcast" @@ fun () ->
  ignore
    (Fault.sim_run ~env
       ~recovery:
         {
           (Fault.immutable ()) with
           snapshot = (fun q -> { q with bq = Array.copy q.bq });
         }
       g
       (broadcast_flat ~tree ~items ~bits))

(* Node state for {!aggregate}: children not yet heard from, the children
   already counted (duplicate suppression), the running combination, and
   whether the report went up.  The completion test is
   [waiting > 0 || sent || root]: a node waiting on a child sleeps until
   the child's report arrives, a leaf starts not-done and fires its
   report on its round-0 step, and everything afterwards is mail-driven,
   so the active list stays at the report wavefront. *)
type 'a agg_fstate = {
  mutable a_waiting : int;
  mutable a_heard : ISet.t;
  mutable a_acc : 'a;
  mutable a_sent : bool;
  a_root : bool;
}

let aggregate_flat ~(tree : Bfs.tree) ~value ~combine ~bits :
    ('a agg_fstate, 'a) Sim.flat_protocol =
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        {
          a_waiting = List.length tree.children.(v);
          a_heard = ISet.empty;
          a_acc = value v;
          a_sent = false;
          a_root = v = tree.root;
        });
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let k = Sim.inbox_len inbox in
        for i = 0 to k - 1 do
          (* Each child reports exactly once, so the sender id doubles as
             the report's sequence stamp: a repeat sender is a duplicated
             delivery and must not decrement the child count. *)
          let sender = Sim.inbox_src inbox i in
          if not (ISet.mem sender st.a_heard) then begin
            st.a_heard <- ISet.add sender st.a_heard;
            st.a_waiting <- st.a_waiting - 1;
            st.a_acc <- combine st.a_acc (Sim.inbox_msg inbox i)
          end
        done;
        if st.a_waiting = 0 && (not st.a_sent) && not st.a_root then begin
          st.a_sent <- true;
          emit ~dst:tree.parent.(v) st.a_acc
        end;
        st);
    fp_is_done = (fun st -> st.a_waiting > 0 || st.a_sent || st.a_root);
    fp_msg_bits = bits;
  }

let aggregate ?(env = Sim.default_env) g ~(tree : Bfs.tree) ~value ~combine
    ~bits =
  Sim.span env "aggregate" @@ fun () ->
  let states, _ =
    Fault.sim_run ~env
      ~recovery:
        {
          (Fault.immutable ()) with
          (* A fresh record; every field holds an immutable value. *)
          snapshot = (fun st -> { st with a_sent = st.a_sent });
        }
      g
      (aggregate_flat ~tree ~value ~combine ~bits)
  in
  states.(tree.root).a_acc
