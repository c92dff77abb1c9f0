module ISet = Set.Make (Int)

type 'a up_state = {
  pending : 'a list;  (** queue of items still to forward to the parent *)
  received : 'a list;  (** root only: arrival order, reversed *)
}

(* Native flat-engine state for {!upcast}: the forward queue is an actual
   Queue (O(1) push/pop instead of the classic list append per step) and
   the root's arrival log is mutated in place, so a step allocates only
   the queue cells of newly arrived items.  The semantics — existing
   pending items first, then arrivals in inbox order, one item to the
   parent per round — are exactly the classic protocol's. *)
type 'a up_fstate = { uq : 'a Queue.t; mutable u_recvd : 'a list }

let upcast_flat ~(tree : Bfs.tree) ~items ~bits :
    ('a up_fstate, 'a) Sim.flat_protocol =
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let mine = items v in
        let uq = Queue.create () in
        if v = tree.root then { uq; u_recvd = List.rev mine }
        else begin
          List.iter (fun it -> Queue.add it uq) mine;
          { uq; u_recvd = [] }
        end);
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let k = Sim.inbox_len inbox in
        if v = tree.root then begin
          for i = 0 to k - 1 do
            st.u_recvd <- Sim.inbox_msg inbox i :: st.u_recvd
          done;
          st
        end
        else begin
          for i = 0 to k - 1 do
            Queue.add (Sim.inbox_msg inbox i) st.uq
          done;
          (match Queue.take_opt st.uq with
          | Some item -> emit ~dst:tree.parent.(v) item
          | None -> ());
          st
        end);
    fp_is_done = (fun st -> Queue.is_empty st.uq);
    fp_msg_bits = bits;
    fp_wake = Some Sim.never;
  }

let upcast ?(env = Sim.default_env) g ~(tree : Bfs.tree) ~items ~bits =
  Sim.span env "upcast" @@ fun () ->
  if Sim.native_ports env then begin
    let states, stats = Sim.run_flat ~env g (upcast_flat ~tree ~items ~bits) in
    List.rev states.(tree.root).u_recvd, stats
  end
  else begin
  let proto : ('a up_state, 'a) Sim.protocol =
    {
      init =
        (fun view ->
          let mine = items view.Sim.node in
          if view.Sim.node = tree.root then
            (* The root's own items need no transport. *)
            { pending = []; received = List.rev mine }
          else { pending = mine; received = [] });
      step =
        (fun view ~round:_ st ~inbox ->
          let v = view.Sim.node in
          let incoming = List.map snd inbox in
          if v = tree.root then
            { st with received = List.rev_append incoming st.received }, []
          else begin
            let pending = st.pending @ incoming in
            match pending with
            | [] -> { st with pending = [] }, []
            | item :: rest ->
                { st with pending = rest }, [ tree.parent.(v), item ]
          end);
      is_done = (fun st -> st.pending = []);
      msg_bits = bits;
      wake = Some Sim.never;
    }
  in
  let states, stats =
    Fault.sim_run ~env ~recovery:(Fault.immutable ()) g proto
  in
  let root_state = states.(tree.root) in
  List.rev root_state.received, stats
  end

type ('a, 'b) dedup_state = {
  d_pending : 'a list;
  d_seen : ('b, 'a list) Hashtbl.t;  (** key -> distinct items kept *)
  d_received : 'a list;
}

let upcast_dedup ?(env = Sim.default_env) ?(per_key = 1) g ~(tree : Bfs.tree)
    ~items ~key ~bits =
  (* Keep an item iff its key has fewer than [per_key] distinct items so
     far and the item itself is new. *)
  let admit seen it k =
    let kept = Option.value ~default:[] (Hashtbl.find_opt seen k) in
    if List.length kept >= per_key || List.mem it kept then false
    else begin
      Hashtbl.replace seen k (it :: kept);
      true
    end
  in
  let proto : (('a, 'b) dedup_state, 'a) Sim.protocol =
    {
      init =
        (fun view ->
          let seen = Hashtbl.create 8 in
          let mine =
            List.filter (fun it -> admit seen it (key it)) (items view.Sim.node)
          in
          if view.Sim.node = tree.root then
            { d_pending = []; d_seen = seen; d_received = List.rev mine }
          else { d_pending = mine; d_seen = seen; d_received = [] });
      step =
        (fun view ~round:_ st ~inbox ->
          let v = view.Sim.node in
          let fresh =
            List.filter_map
              (fun (_, it) ->
                if admit st.d_seen it (key it) then Some it else None)
              inbox
          in
          if v = tree.root then
            { st with d_received = List.rev_append fresh st.d_received }, []
          else begin
            match st.d_pending @ fresh with
            | [] -> { st with d_pending = [] }, []
            | item :: rest ->
                { st with d_pending = rest }, [ tree.parent.(v), item ]
          end);
      is_done = (fun st -> st.d_pending = []);
      msg_bits = bits;
      wake = Some Sim.never;
    }
  in
  let states, stats =
    Sim.span env "upcast_dedup" (fun () ->
        (* The per-node seen-table makes this inherently boxed; it runs on
           the flat engine through the adapter (the wake hook is
           physically [never], so sparse scheduling is preserved).
           The seen-table also makes the state mutable, so the recovery
           snapshot must copy it. *)
        Fault.sim_run ~env
          ~recovery:
            {
              Fault.snapshot =
                (fun st -> { st with d_seen = Hashtbl.copy st.d_seen });
              state_bits = (fun st -> 63 * (1 + Hashtbl.length st.d_seen));
            }
          g proto)
  in
  let root_state = states.(tree.root) in
  List.rev root_state.d_received, stats

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
  let proto : ('a seq_state, 'a) Sim.protocol =
    {
      init =
        (fun view ->
          let v = view.Sim.node in
          {
            departures =
              List.rev (Option.value ~default:[] (Hashtbl.find_opt schedule v));
            s_received = (if v = tree.root then !root_items else []);
          });
      step =
        (fun view ~round st ~inbox ->
          let v = view.Sim.node in
          if v = tree.root then
            { st with s_received = List.rev_append (List.map snd inbox) st.s_received },
            []
          else begin
            (* Forward anything received, plus any item scheduled now. *)
            let forward = List.map snd inbox in
            let due, later =
              List.partition (fun (r, _) -> r <= round) st.departures
            in
            let out =
              List.map (fun it -> tree.parent.(v), it) forward
              @ List.map (fun (_, it) -> tree.parent.(v), it) due
            in
            { st with departures = later }, out
          end);
      is_done = (fun st -> st.departures = []);
      msg_bits = bits;
      (* Scheduled departures keep the node not-done until they are sent, so
         progress-driven waking suffices even for this clock-driven variant. *)
      wake = Some Sim.never;
    }
  in
  let states, stats =
    Sim.span env "upcast_sequential" (fun () -> Sim.run ~env g proto)
  in
  List.rev states.(tree.root).s_received, stats

(* Native flat-engine state for {!broadcast}: the node's forward queue.
   One item leaves the queue per round whether or not the node has
   children, matching the classic protocol's drain behaviour (and hence
   its round count) exactly. *)
let broadcast_flat ~(tree : Bfs.tree) ~items ~bits :
    ('a Queue.t, 'a) Sim.flat_protocol =
  {
    fp_init =
      (fun view ->
        let dq = Queue.create () in
        if view.Sim.node = tree.root then
          List.iter (fun it -> Queue.add it dq) items;
        dq);
    fp_step =
      (fun view ~round:_ dq ~inbox ~emit ->
        for i = 0 to Sim.inbox_len inbox - 1 do
          Queue.add (Sim.inbox_msg inbox i) dq
        done;
        (match Queue.take_opt dq with
        | Some item ->
            List.iter (fun c -> emit ~dst:c item) tree.children.(view.Sim.node)
        | None -> ());
        dq);
    fp_is_done = Queue.is_empty;
    fp_msg_bits = bits;
    fp_wake = Some Sim.never;
  }

let broadcast ?(env = Sim.default_env) g ~(tree : Bfs.tree) ~items ~bits =
  Sim.span env "broadcast" @@ fun () ->
  if Sim.native_ports env then
    snd (Sim.run_flat ~env g (broadcast_flat ~tree ~items ~bits))
  else begin
  (* A node's state is the list of items it has yet to forward. *)
  let proto : ('a list, 'a) Sim.protocol =
    {
      init = (fun view -> if view.Sim.node = tree.root then items else []);
      step =
        (fun view ~round:_ to_send ~inbox ->
          match to_send @ List.map snd inbox with
          | [] -> [], []
          | item :: rest ->
              rest, List.map (fun c -> c, item) tree.children.(view.Sim.node));
      is_done = (fun to_send -> to_send = []);
      msg_bits = bits;
      wake = Some Sim.never;
    }
  in
  snd (Fault.sim_run ~env ~recovery:(Fault.immutable ()) g proto)
  end

type 'a agg_state = {
  waiting : int;  (** children not yet heard from *)
  heard : ISet.t;  (** children already counted (duplicate suppression) *)
  acc : 'a;
  sent : bool;
}

(* Native flat-engine state for {!aggregate}.  The classic protocol uses a
   round-0 wake hook to kick off the leaves; here the completion test is
   [waiting = 0 && (sent || root)] instead, so a leaf starts not-done, fires
   its report on its round-0 step, and everything afterwards is mail-driven
   — which lets the port declare [wake = Some Sim.never] and ride the
   sparse active list.  Message schedule and quiescence round are identical
   to the classic protocol (the extra classic wake steps are no-ops). *)
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
    fp_is_done = (fun st -> st.a_waiting = 0 && (st.a_sent || st.a_root));
    fp_msg_bits = bits;
    fp_wake = Some Sim.never;
  }

let aggregate ?(env = Sim.default_env) g ~(tree : Bfs.tree) ~value ~combine
    ~bits =
  Sim.span env "aggregate" @@ fun () ->
  if Sim.native_ports env then begin
    let states, stats =
      Sim.run_flat ~env g (aggregate_flat ~tree ~value ~combine ~bits)
    in
    states.(tree.root).a_acc, stats
  end
  else begin
  let proto : ('a agg_state, 'a) Sim.protocol =
    {
      init =
        (fun view ->
          let v = view.Sim.node in
          {
            waiting = List.length tree.children.(v);
            heard = ISet.empty;
            acc = value v;
            sent = false;
          });
      step =
        (fun view ~round:_ st ~inbox ->
          let v = view.Sim.node in
          (* Duplicate-tolerant child count: each child reports exactly
             once, so the sender id is the report's sequence stamp — a
             repeat sender is a duplicated delivery and is ignored.  On a
             lossless network no sender ever repeats, so the fold (and the
             combine order) is unchanged. *)
          let st =
            List.fold_left
              (fun st (sender, x) ->
                if ISet.mem sender st.heard then st
                else
                  {
                    st with
                    heard = ISet.add sender st.heard;
                    waiting = st.waiting - 1;
                    acc = combine st.acc x;
                  })
              st inbox
          in
          if st.waiting = 0 && (not st.sent) && v <> tree.root then
            { st with sent = true }, [ tree.parent.(v), st.acc ]
          else st, []);
      (* After any step, waiting = 0 implies the node already reported to its
         parent (the send fires in the same step that zeroes [waiting]), so
         [waiting = 0] alone is a sound completion test for root and
         non-root alike. *)
      is_done = (fun st -> st.waiting = 0);
      msg_bits = bits;
      (* Leaves start with [waiting = 0] (already "done") but must still fire
         their report in round 0; afterwards everything is mail-driven. *)
      wake = Some (fun _ ~round _ -> round = 0);
    }
  in
  let states, stats =
    Fault.sim_run ~env ~recovery:(Fault.immutable ()) g proto
  in
  states.(tree.root).acc, stats
  end

let count_nodes ?(env = Sim.default_env) g ~tree =
  aggregate ~env g ~tree
    ~value:(fun _ -> 1)
    ~combine:( + )
    ~bits:(fun x -> Dsf_util.Bitsize.int_bits (max 1 x))
