(* The classic list protocols of the ported primitives, kept as the test
   oracle.  Each is the list-protocol original that the library's native
   flat port replaced, together with its result decoder and recovery
   contract, behind the same entry point as the library's, except that
   it also returns the run's stats ([test_sim_equiv] reads the port's
   through [Sim.measure]).  Every runner
   goes through [Fault.sim_run], so it runs lossless, under injected
   faults, and hardened under a [Chaos] network exactly as the library
   primitive does; [test_sim_equiv] checks each port against it on all
   three.  [test_chaos] and [test_recorder] use the BFS and exchange
   protocols as sample list protocols. *)

open Dsf_graph
module Sim = Dsf_congest.Sim
module Fault = Dsf_congest.Fault
module Uf = Dsf_util.Union_find
module ISet = Set.Make (Int)

let sim_run ?halt ?(recovery = Fault.immutable ()) ~env g proto =
  Fault.sim_run ?halt ~env ~recovery g (Sim.flat_of_protocol proto)

module Bfs = struct
  type state = { parent : int option; depth : int; announced : bool }
  type msg = Join of int  (** sender's depth *)

  let protocol ~root : (state, msg) Sim.protocol =
    {
      init =
        (fun view ->
          if view.Sim.node = root then
            { parent = Some (-1); depth = 0; announced = false }
          else { parent = None; depth = max_int; announced = false });
      step =
        (fun view ~round:_ st ~inbox ->
          (* Join the tree via the smallest-id neighbor heard from first. *)
          let st =
            if st.parent = None then begin
              let best =
                List.fold_left
                  (fun acc (sender, Join d) ->
                    match acc with
                    | Some (_, bs) when bs <= sender -> acc
                    | _ -> Some (d, sender))
                  None inbox
              in
              match best with
              | Some (d, sender) ->
                  { parent = Some sender; depth = d + 1; announced = false }
              | None -> st
            end
            else st
          in
          match st.parent with
          | Some _ when not st.announced ->
              let outbox =
                Array.to_list view.Sim.nbrs
                |> List.map (fun (nb, _, _) -> nb, Join st.depth)
              in
              { st with announced = true }, outbox
          | _ -> st, []);
      is_done = (fun st -> st.parent <> None && st.announced);
      msg_bits = (fun (Join d) -> Dsf_util.Bitsize.int_bits (max d 1));
      (* Unreached nodes are not done; reached-and-announced nodes only
         react to mail. *)
      wake = Some Sim.never;
    }

  let build ?(env = Sim.default_env) g ~root =
    let states, stats = sim_run ~env g (protocol ~root) in
    let parent =
      Array.map (fun st -> Option.value ~default:(-1) st.parent) states
    in
    let depth = Array.map (fun st -> st.depth) states in
    let children = Array.make (Graph.n g) [] in
    Array.iteri
      (fun v p -> if p >= 0 then children.(p) <- v :: children.(p))
      parent;
    let height = Array.fold_left max 0 depth in
    { Dsf_congest.Bfs.root; parent; depth; children; height }, stats
end

module Exchange = struct
  let protocol ~payload_bits : (bool, unit) Sim.protocol =
    {
      init = (fun _ -> false);
      step =
        (fun view ~round:_ sent ~inbox:_ ->
          if sent then true, []
          else
            ( true,
              Array.to_list view.Sim.nbrs
              |> List.map (fun (nb, _, _) -> nb, ()) ));
      is_done = Fun.id;
      msg_bits = (fun () -> payload_bits);
      wake = Some Sim.never;
    }

  let all_neighbors ?(env = Sim.default_env) g ~payload_bits =
    snd (sim_run ~env g (protocol ~payload_bits))
end

module Tree_ops = struct
  type 'a up_state = {
    pending : 'a list;  (** queue of items still to forward to the parent *)
    received : 'a list;  (** root only: arrival order, reversed *)
  }

  let upcast ?(env = Sim.default_env) g ~(tree : Dsf_congest.Bfs.tree) ~items
      ~bits =
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
    let states, stats = sim_run ~env g proto in
    List.rev states.(tree.root).received, stats

  type ('a, 'b) dedup_state = {
    d_pending : 'a list;
    d_seen : ('b, 'a list) Hashtbl.t;  (** key -> distinct items kept *)
    d_received : 'a list;
  }

  let upcast_dedup ?(env = Sim.default_env) ?(per_key = 1) g
      ~(tree : Dsf_congest.Bfs.tree) ~items ~key ~bits =
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
      (* The seen-table makes the state mutable, so the recovery snapshot
         must copy it. *)
      sim_run ~env
        ~recovery:
          {
            Fault.snapshot =
              (fun st -> { st with d_seen = Hashtbl.copy st.d_seen });
            state_bits = (fun st -> 63 * (1 + Hashtbl.length st.d_seen));
          }
        g proto
    in
    List.rev states.(tree.root).d_received, stats

  let broadcast ?(env = Sim.default_env) g ~(tree : Dsf_congest.Bfs.tree)
      ~items ~bits =
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
    snd (sim_run ~env g proto)

  type 'a agg_state = {
    waiting : int;  (** children not yet heard from *)
    heard : ISet.t;  (** children already counted (duplicate suppression) *)
    acc : 'a;
    sent : bool;
  }

  let aggregate ?(env = Sim.default_env) g ~(tree : Dsf_congest.Bfs.tree)
      ~value ~combine ~bits =
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
            (* A repeat sender is a duplicated delivery and is ignored. *)
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
        (* The send fires in the step that zeroes [waiting], so
           [waiting = 0] alone is a sound completion test. *)
        is_done = (fun st -> st.waiting = 0);
        msg_bits = bits;
        (* Leaves start done but must still fire their report in round 0;
           afterwards everything is mail-driven. *)
        wake = Some (fun _ ~round _ -> round = 0);
      }
    in
    let states, stats = sim_run ~env g proto in
    states.(tree.root).acc, stats
end

module Pipeline = struct
  open Dsf_congest.Pipeline

  type 'k msg = Item of 'k item | Done

  type 'k state = {
    own : 'k item list;  (** ascending *)
    queues : (int, 'k item Queue.t) Hashtbl.t;  (** per-child FIFO *)
    open_children : (int, unit) Hashtbl.t;  (** children not yet Done *)
    uf : Uf.t;
    accepted : 'k item list;  (** root only; reversed *)
    sent_done : bool;
  }

  let item_cmp cmp i1 i2 =
    let c = cmp i1.key i2.key in
    if c <> 0 then c else compare (i1.a, i1.b) (i2.a, i2.b)

  let filtered_upcast ?(env = Sim.default_env) ?stop_at_root g
      ~(tree : Dsf_congest.Bfs.tree) ~vn ~pre ~items ~cmp ~bits =
    let icmp = item_cmp cmp in
    let stalled st =
      Hashtbl.fold
        (fun c () acc -> acc || Queue.is_empty (Hashtbl.find st.queues c))
        st.open_children false
    in
    let drained st =
      st.own = []
      && Hashtbl.length st.open_children = 0
      && Hashtbl.fold (fun _ q acc -> acc && Queue.is_empty q) st.queues true
    in
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
            if stalled st then st, []
            else begin
              (* Repeatedly extract the global minimum; discard
                 cycle-closers for free; send (or accept, at the root) the
                 first survivor. *)
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
                    if Uf.same st.uf it.a it.b then
                      if stalled st then st, None else extract st
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
                  if drained st && (not st.sent_done) && v <> tree.root then
                    { st with sent_done = true }, [ tree.parent.(v), Done ]
                  else st, []
            end);
        is_done = drained;
        msg_bits = (function Item it -> bits it | Done -> 1);
        (* A drained node still owes its parent a [Done] one round after
           its last item, which [is_done] does not capture. *)
        wake = Some (fun _ ~round:_ st -> not st.sent_done);
      }
    in
    let halt =
      Option.map
        (fun pred states -> pred (List.rev states.(tree.root).accepted))
        stop_at_root
    in
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
    let states, stats = sim_run ?halt ~recovery ~env g proto in
    List.rev states.(tree.root).accepted, stats
end

module Select = struct
  type state = { pending : bool; forwarded : bool; marked : int list }

  let token_flood ?(env = Sim.default_env) g ~parent ~seeds =
    let proto : (state, unit) Sim.protocol =
      {
        init =
          (fun view ->
            { pending = seeds.(view.Sim.node); forwarded = false; marked = [] });
        step =
          (fun view ~round:_ st ~inbox ->
            let v = view.Sim.node in
            let st = if inbox <> [] then { st with pending = true } else st in
            if st.pending && (not st.forwarded) && parent.(v) >= 0 then begin
              let eid =
                match Graph.find_edge g v parent.(v) with
                | Some id -> id
                | None -> invalid_arg "Select.token_flood: parent not adjacent"
              in
              ( { st with forwarded = true; marked = eid :: st.marked },
                [ parent.(v), () ] )
            end
            else { st with forwarded = st.forwarded || st.pending }, []);
        is_done = (fun st -> (not st.pending) || st.forwarded);
        msg_bits = (fun () -> 1);
        wake = None;
      }
    in
    let states, stats = sim_run ~env g proto in
    ( Array.fold_left (fun acc st -> List.rev_append st.marked acc) [] states,
      stats )
end

module Region_bf = struct
  module Frac = Dsf_core.Frac

  type state = {
    dist : Frac.t;
    owner : int;
    parent : int;
    hops : int;
    dirty : bool;
  }

  type msg = Relax of { dist : Frac.t; owner : int; hops : int }

  let better (d1, o1, h1) (d2, o2, h2) =
    let c = Frac.compare d1 d2 in
    c < 0 || (c = 0 && (o1, h1) < (o2, h2))

  let run ?(env = Sim.default_env) g ~sources ~frozen =
    let n = Graph.n g in
    let init = Hashtbl.create (max 1 (List.length sources)) in
    List.iter
      (fun (v, off, owner) ->
        match Hashtbl.find_opt init v with
        | Some (o, ow) when better (o, ow, 0) (off, owner, 0) -> ()
        | _ -> Hashtbl.replace init v (off, owner))
      sources;
    let unreached = Frac.of_int max_int in
    let pinned v = Hashtbl.mem init v in
    let announce view st =
      Array.to_list view.Sim.nbrs
      |> List.filter_map (fun (nb, _, _) ->
             if frozen.(nb) then None
             else
               Some
                 (nb, Relax { dist = st.dist; owner = st.owner; hops = st.hops }))
    in
    let proto : (state, msg) Sim.protocol =
      {
        init =
          (fun view ->
            let v = view.Sim.node in
            match Hashtbl.find_opt init v with
            | Some (off, owner) when not frozen.(v) ->
                { dist = off; owner; parent = -1; hops = 0; dirty = true }
            | _ ->
                {
                  dist = unreached;
                  owner = -1;
                  parent = -1;
                  hops = max_int;
                  dirty = false;
                });
        step =
          (fun view ~round:_ st ~inbox ->
            let v = view.Sim.node in
            if frozen.(v) then st, []
            else if pinned v then
              if st.dirty then { st with dirty = false }, announce view st
              else st, []
            else begin
              let st =
                List.fold_left
                  (fun st (sender, Relax r) ->
                    let w = ref (-1) in
                    Array.iter
                      (fun (nb, wt, _) -> if nb = sender then w := wt)
                      view.Sim.nbrs;
                    assert (!w >= 0);
                    let nd = Frac.add r.dist (Frac.of_int !w) in
                    let nh = r.hops + 1 in
                    if
                      st.owner < 0
                      || better (nd, r.owner, nh) (st.dist, st.owner, st.hops)
                    then
                      {
                        dist = nd;
                        owner = r.owner;
                        parent = sender;
                        hops = nh;
                        dirty = true;
                      }
                    else st)
                  st inbox
              in
              if st.dirty && st.owner >= 0 then
                { st with dirty = false }, announce view st
              else { st with dirty = false }, []
            end);
        is_done = (fun st -> not st.dirty);
        msg_bits =
          (fun (Relax r) ->
            Frac.bits r.dist
            + Dsf_util.Bitsize.id_bits ~n
            + Dsf_util.Bitsize.int_bits (max 1 r.hops));
        wake = Some Sim.never;
      }
    in
    let states, stats = sim_run ~env g proto in
    ( Array.map
        (fun st ->
          if st.owner >= 0 then
            { Dsf_core.Region_bf.owner = st.owner; offset = st.dist;
              parent = st.parent }
          else { owner = -1; offset = unreached; parent = -1 })
        states,
      stats )
end

module Bellman_ford = struct
  open Dsf_congest.Bellman_ford

  (* The library keeps this protocol as its fallback for wide inputs;
     here it runs on every input, decoded as [Bellman_ford.run] does. *)
  let run ?weight_of ?radius ?(env = Sim.default_env) g ~sources =
    let states, stats =
      sim_run ~env g (protocol ?weight_of ?radius g ~sources)
    in
    let field f unreached =
      Array.map
        (fun (st : state) -> if st.src >= 0 then f st else unreached)
        states
    in
    ( {
        dist = field (fun st -> st.dist) max_int;
        src_of = field (fun st -> st.src) (-1);
        parent = field (fun st -> st.parent) (-1);
        hops = field (fun st -> st.hops) max_int;
        rounds = stats.Sim.rounds;
      },
      stats )
end
