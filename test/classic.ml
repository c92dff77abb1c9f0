(* The list-protocol oracle.  The library has one protocol type,
   [Sim.flat_protocol]: a step reads its mail through an inbox view and
   sends through an [emit] callback.  Before that, protocols were records
   whose step took its mail as a [(sender, message)] list and returned its
   sends as an outbox list.  That classic type lives on here, with its one
   adapter [to_flat] (the inbox is materialized as a list, the outbox is
   walked in order and emitted), and with the list-protocol originals of
   every primitive the library ported.

   Each original sits behind the same entry point as the library's, with
   its result decoder and recovery contract, except that it also returns
   the stats of its runs ([test_sim_equiv] reads the port's through
   [Sim.measure]).  Every runner goes through [Fault.sim_run], so it runs
   lossless, under injected faults, and hardened under a [Chaos] network
   exactly as the library primitive does; [test_sim_equiv] checks each
   port against its original on all three.  [run] and [run_reference] run
   a classic protocol on the two engines, for the suites that use the BFS
   and exchange protocols (and small ad-hoc ones) as sample
   protocols. *)

open Dsf_graph
module Sim = Dsf_congest.Sim
module Fault = Dsf_congest.Fault
module Uf = Dsf_util.Union_find
module ISet = Set.Make (Int)

type ('s, 'm) protocol = {
  init : Sim.view -> 's;
  step :
    Sim.view -> round:int -> 's -> inbox:(int * 'm) list -> 's * (int * 'm) list;
      (** [inbox] is the list of (sender, message) delivered this round;
          returns the new state and the outbox of (neighbor, message). *)
  is_done : 's -> bool;
  msg_bits : 'm -> int;
}

let to_flat p =
  {
    Sim.fp_init = p.init;
    fp_step =
      (fun view ~round s ~inbox ~emit ->
        let mail =
          List.init (Sim.inbox_len inbox) (fun i ->
              Sim.inbox_src inbox i, Sim.inbox_msg inbox i)
        in
        let s', outbox = p.step view ~round s ~inbox:mail in
        List.iter (fun (dst, msg) -> emit ~dst msg) outbox;
        s');
    fp_is_done = p.is_done;
    fp_msg_bits = p.msg_bits;
  }

let run ?max_rounds ?halt ?env g p =
  Sim.run_flat ?max_rounds ?halt ?env g (to_flat p)

let run_reference ?max_rounds ?halt ?env g p =
  Sim.run_reference ?max_rounds ?halt ?env g (to_flat p)

(* Immutable-state originals checkpoint by sharing; [sim_run_mutable] is
   for the originals with mutable tables and no recovery contract. *)
let sim_run ?halt ?(recovery = Fault.immutable ()) ~env g proto =
  Fault.sim_run ?halt ~env ~recovery g (to_flat proto)

let sim_run_mutable ~env g proto = Fault.sim_run ~env g (to_flat proto)

module Bfs = struct
  type state = { parent : int option; depth : int; announced : bool }
  type msg = Join of int  (** sender's depth *)

  let protocol ~root : (state, msg) protocol =
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
      (* Unreached nodes are not done; reached-and-announced nodes only
         react to mail. *)
      is_done = (fun st -> st.parent <> None && st.announced);
      msg_bits = (fun (Join d) -> Dsf_util.Bitsize.int_bits (max d 1));
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
  let protocol ~payload_bits : (bool, unit) protocol =
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
    let proto : ('a up_state, 'a) protocol =
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
    let proto : (('a, 'b) dedup_state, 'a) protocol =
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
    let proto : ('a list, 'a) protocol =
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
      }
    in
    snd (sim_run ~env g proto)

  type 'a agg_state = {
    waiting : int;  (** children not yet heard from *)
    heard : ISet.t;  (** children already counted (duplicate suppression) *)
    acc : 'a;
    sent : bool;
    root : bool;
  }

  let aggregate ?(env = Sim.default_env) g ~(tree : Dsf_congest.Bfs.tree)
      ~value ~combine ~bits =
    let proto : ('a agg_state, 'a) protocol =
      {
        init =
          (fun view ->
            let v = view.Sim.node in
            {
              waiting = List.length tree.children.(v);
              heard = ISet.empty;
              acc = value v;
              sent = false;
              root = v = tree.root;
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
        (* The send fires in the step that zeroes [waiting]; a leaf starts
           with [waiting = 0] and fires its report in round 0, so it is not
           done until it has sent. *)
        is_done = (fun st -> st.waiting = 0 && (st.sent || st.root));
        msg_bits = bits;
      }
    in
    let states, stats = sim_run ~env g proto in
    states.(tree.root).acc, stats

  type 'a seq_state = {
    departures : (int * 'a) list;  (** (round, item) for this node, ascending *)
    s_received : 'a list;  (** root only, reversed *)
  }

  let upcast_sequential ?(env = Sim.default_env) g
      ~(tree : Dsf_congest.Bfs.tree) ~items ~bits =
    let schedule = Hashtbl.create 16 in
    let clock = ref 0 in
    let root_items = ref [] in
    for v = 0 to Graph.n g - 1 do
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
    let proto : ('a seq_state, 'a) protocol =
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
      }
    in
    let recovery =
      {
        (Fault.immutable ()) with
        Fault.state_bits =
          (fun st ->
            63 * (1 + List.length st.departures + List.length st.s_received));
      }
    in
    let states, stats = sim_run ~recovery ~env g proto in
    List.rev states.(tree.root).s_received, stats
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
    is_root : bool;
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
    let proto : ('k state, 'k msg) protocol =
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
              is_root = v = tree.root;
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
        (* A drained node still owes its parent a [Done] one round after
           its last item. *)
        is_done = (fun st -> drained st && (st.sent_done || st.is_root));
        msg_bits = (function Item it -> bits it | Done -> 1);
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
    let proto : (state, unit) protocol =
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
    let proto : (state, msg) protocol =
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

  type msg = Relax of { dist : int; src : int; hops : int }

  let inf = max_int / 4

  let better ((d1 : int), (s1 : int), (h1 : int)) (d2, s2, h2) =
    d1 < d2 || (d1 = d2 && (s1 < s2 || (s1 = s2 && h1 < h2)))

  let protocol ?weight_of ?radius g ~sources : (state, msg) protocol =
    let n = Graph.n g in
    let weight_of =
      match weight_of with
      | Some f -> f
      | None -> fun eid -> (Graph.edge g eid).Graph.w
    in
    let cap = match radius with Some r -> r | None -> inf in
    let nbr_weight =
      Array.init n (fun v ->
          let h = Hashtbl.create 8 in
          Array.iter
            (fun (nb, _, eid) -> Hashtbl.replace h nb (weight_of eid))
            (Graph.adj g v);
          h)
    in
    let init_dist = Hashtbl.create (List.length sources) in
    List.iter
      (fun (v, d0) ->
        assert (d0 >= 0);
        match Hashtbl.find_opt init_dist v with
        | Some d when d <= d0 -> ()
        | _ -> Hashtbl.replace init_dist v d0)
      sources;
    {
      init =
        (fun view ->
          match Hashtbl.find_opt init_dist view.Sim.node with
          | Some d0 when d0 <= cap ->
              { dist = d0; src = view.Sim.node; parent = -1; hops = 0; dirty = true }
          | _ -> { dist = inf; src = -1; parent = -1; hops = inf; dirty = false });
      step =
        (fun view ~round:_ st ~inbox ->
          let st =
            List.fold_left
              (fun st (sender, Relax r) ->
                let w = Hashtbl.find nbr_weight.(view.Sim.node) sender in
                let nd = r.dist + w and nh = r.hops + 1 in
                if nd <= cap && better (nd, r.src, nh) (st.dist, st.src, st.hops)
                then
                  { dist = nd; src = r.src; parent = sender; hops = nh; dirty = true }
                else st)
              st inbox
          in
          if st.dirty && st.src >= 0 then begin
            let outbox =
              Array.to_list view.Sim.nbrs
              |> List.map (fun (nb, _, _) ->
                     nb, Relax { dist = st.dist; src = st.src; hops = st.hops })
            in
            { st with dirty = false }, outbox
          end
          else { st with dirty = false }, []);
      is_done = (fun st -> not st.dirty);
      msg_bits =
        (fun (Relax r) ->
          Dsf_util.Bitsize.int_bits (Int.max 1 r.dist)
          + Dsf_util.Bitsize.id_bits ~n
          + Dsf_util.Bitsize.int_bits (Int.max 1 r.hops));
    }

  (* The library keeps a boxed port of this protocol as its fallback for
     wide inputs; here it runs on every input, decoded as
     [Bellman_ford.run] does. *)
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

module Leader = struct
  open Dsf_congest.Leader

  let protocol g : (state, int) protocol =
    let n = Graph.n g in
    {
      init = (fun view -> { best = view.Sim.node; dirty = true });
      step =
        (fun view ~round:_ st ~inbox ->
          let st =
            List.fold_left
              (fun st (_, cand) ->
                if cand > st.best then { best = cand; dirty = true } else st)
              st inbox
          in
          if st.dirty then
            ( { st with dirty = false },
              Array.to_list view.Sim.nbrs
              |> List.map (fun (nb, _, _) -> nb, st.best) )
          else st, []);
      is_done = (fun st -> not st.dirty);
      msg_bits = (fun _ -> Dsf_util.Bitsize.id_bits ~n);
    }

  (* [Leader.elect]'s decode, without its agreement assertion. *)
  let elect ?(env = Sim.default_env) g =
    let states, stats = sim_run ~env g (protocol g) in
    let leader =
      Array.fold_left (fun acc st -> Int.max acc st.best) min_int states
    in
    let agreed = Array.for_all (fun st -> st.best = leader) states in
    { leader; agreed }, stats
end

module Component_ops = struct
  type 'a state = { best : 'a option; dirty : bool }

  let gossip_extremum ?(env = Sim.default_env) g ~mask ~values ~better ~bits =
    let proto : ('a state, 'a) protocol =
      {
        init =
          (fun view ->
            match values view.Sim.node with
            | Some v -> { best = Some v; dirty = true }
            | None -> { best = None; dirty = false });
        step =
          (fun view ~round:_ st ~inbox ->
            let st =
              List.fold_left
                (fun st (_, v) ->
                  match st.best with
                  | Some b when not (better v b) -> st
                  | _ -> { best = Some v; dirty = true })
                st inbox
            in
            match st.best, st.dirty with
            | Some v, true ->
                let outbox =
                  Array.to_list view.Sim.nbrs
                  |> List.filter_map (fun (nb, _, eid) ->
                         if mask.(eid) then Some (nb, v) else None)
                in
                { st with dirty = false }, outbox
            | _ -> { st with dirty = false }, []);
        is_done = (fun st -> not st.dirty);
        msg_bits = bits;
      }
    in
    let states, stats = sim_run ~env g proto in
    Array.map (fun st -> st.best) states, stats
end

module Coloring = struct
  type color_state = {
    color : int;
    pre_shift : int;
    parent_color : int;
    finished : bool;
  }

  type color_msg = Down of int

  (* The library's Cole-Vishkin helpers, copied so the original stands
     alone. *)
  let cv_step own parent =
    assert (own <> parent);
    let diff = own lxor parent in
    let rec lowest i v = if v land 1 = 1 then i else lowest (i + 1) (v lsr 1) in
    let i = lowest 0 diff in
    (2 * i) + ((own lsr i) land 1)

  let cv_root own = (2 * 0) + (own land 1)
  let cv_iterations = 6
  let root_shift_color old = if old = 0 then 1 else 0

  let three_color ?(env = Sim.default_env) g ~parent =
    let n = Graph.n g in
    let children = Array.make n [] in
    Array.iteri
      (fun v p -> if p >= 0 then children.(p) <- v :: children.(p))
      parent;
    let reduction_start = cv_iterations in
    let limit = reduction_start + 9 in
    let proto : (color_state, color_msg) protocol =
      {
        init =
          (fun view ->
            {
              color = view.Sim.node;
              pre_shift = view.Sim.node;
              parent_color = -1;
              finished = false;
            });
        step =
          (fun view ~round st ~inbox ->
            let v = view.Sim.node in
            let heard_parent =
              List.fold_left
                (fun acc (sender, Down c) ->
                  if sender = parent.(v) then Some c else acc)
                None inbox
            in
            let send_down color =
              List.map (fun c -> c, Down color) children.(v)
            in
            if round < cv_iterations then begin
              let color =
                if round = 0 then st.color
                else begin
                  match heard_parent with
                  | Some c -> cv_step st.color c
                  | None -> cv_root st.color
                end
              in
              { st with color }, send_down color
            end
            else if round < limit then begin
              match (round - reduction_start) mod 3 with
              | 0 -> { st with pre_shift = st.color }, send_down st.color
              | 1 ->
                  let color =
                    match heard_parent with
                    | Some c -> c
                    | None -> root_shift_color st.color
                  in
                  { st with color }, send_down color
              | _ ->
                  let stage = (round - reduction_start) / 3 in
                  let target = 5 - stage in
                  let parent_color =
                    match heard_parent with Some c -> c | None -> -1
                  in
                  let color =
                    if st.color = target then
                      List.find
                        (fun c -> c <> parent_color && c <> st.pre_shift)
                        [ 0; 1; 2 ]
                    else st.color
                  in
                  { st with color; parent_color }, []
            end
            else { st with finished = true }, []);
        is_done = (fun st -> st.finished);
        msg_bits = (fun _ -> Dsf_util.Bitsize.int_bits 8);
      }
    in
    let states, stats = sim_run ~env g proto in
    Array.map (fun st -> st.color) states, stats

  type match_state = {
    m_color : int;
    matched_with : int;  (** -1 when unmatched *)
    accepted : (int * int) list;  (** (child, parent) edges confirmed *)
    m_done : bool;
  }

  type match_msg = Propose | Accept

  (* Two runs (the coloring, then the matching): the stats are their
     measured total. *)
  let maximal_matching ?(env = Sim.default_env) g ~parent =
    Sim.measure ~env @@ fun env ->
    let colors, _ = three_color ~env g ~parent in
    let proto : (match_state, match_msg) protocol =
      {
        init =
          (fun view ->
            {
              m_color = colors.(view.Sim.node);
              matched_with = -1;
              accepted = [];
              m_done = false;
            });
        step =
          (fun view ~round st ~inbox ->
            let v = view.Sim.node in
            let st =
              List.fold_left
                (fun st (sender, msg) ->
                  match msg with
                  | Accept when st.matched_with = -1 ->
                      {
                        st with
                        matched_with = sender;
                        accepted = (v, sender) :: st.accepted;
                      }
                  | _ -> st)
                st inbox
            in
            let proposals =
              List.filter_map
                (fun (sender, msg) ->
                  match msg with Propose -> Some sender | Accept -> None)
                inbox
              |> List.sort compare
            in
            let st, accept_out =
              match proposals, st.matched_with with
              | p :: _, -1 -> { st with matched_with = p }, [ p, Accept ]
              | _ -> st, []
            in
            let propose_out =
              if
                round mod 2 = 0
                && round / 2 = st.m_color
                && st.matched_with = -1
                && parent.(v) >= 0
              then [ parent.(v), Propose ]
              else []
            in
            { st with m_done = round >= 7 }, accept_out @ propose_out);
        is_done = (fun st -> st.m_done);
        msg_bits = (fun _ -> 2);
      }
    in
    let recovery =
      {
        (Fault.immutable ()) with
        Fault.state_bits = (fun st -> 63 * (1 + (2 * List.length st.accepted)));
      }
    in
    let states, _ = sim_run ~recovery ~env g proto in
    Array.to_list states |> List.concat_map (fun st -> st.accepted)
end

module Le_list = struct
  open Dsf_embed.Le_list

  let staircase_insert list (e : entry) =
    let dominated =
      List.exists (fun k -> k.dist <= e.dist && k.rank >= e.rank) list
    in
    if dominated then None
    else begin
      let survivors =
        List.filter (fun k -> not (k.dist >= e.dist && k.rank <= e.rank)) list
      in
      let rec insert = function
        | [] -> [ e ]
        | k :: rest ->
            if k.dist < e.dist || (k.dist = e.dist && k.rank < e.rank) then
              k :: insert rest
            else e :: k :: rest
      in
      Some (insert survivors)
    end

  type node_state = {
    list : entry list;
    out : (int, entry Queue.t) Hashtbl.t;
  }

  type msg = Announce of { target : int; dist : int; rank : int }

  let build ?(env = Sim.default_env) rng g =
    let n = Graph.n g in
    let ranks = Dsf_util.Rng.permutation rng n in
    let proto : (node_state, msg) protocol =
      {
        init =
          (fun view ->
            let v = view.Sim.node in
            let self = { target = v; dist = 0; rank = ranks.(v); next_hop = -1 } in
            let out = Hashtbl.create 4 in
            Array.iter
              (fun (nb, _, _) ->
                let q = Queue.create () in
                Queue.add self q;
                Hashtbl.replace out nb q)
              view.Sim.nbrs;
            { list = [ self ]; out });
        step =
          (fun view ~round:_ st ~inbox ->
            let weight_to sender =
              let w = ref (-1) in
              Array.iter
                (fun (nb, wt, _) -> if nb = sender then w := wt)
                view.Sim.nbrs;
              assert (!w >= 0);
              !w
            in
            let st =
              List.fold_left
                (fun st (sender, Announce a) ->
                  let cand =
                    {
                      target = a.target;
                      dist = a.dist + weight_to sender;
                      rank = a.rank;
                      next_hop = sender;
                    }
                  in
                  match staircase_insert st.list cand with
                  | None -> st
                  | Some list ->
                      Hashtbl.iter (fun _ q -> Queue.add cand q) st.out;
                      { st with list })
                st inbox
            in
            let outbox = ref [] in
            Hashtbl.iter
              (fun nb q ->
                let rec next () =
                  match Queue.take_opt q with
                  | None -> ()
                  | Some e ->
                      if
                        List.exists
                          (fun k -> k.target = e.target && k.dist = e.dist)
                          st.list
                      then
                        outbox :=
                          ( nb,
                            Announce
                              { target = e.target; dist = e.dist; rank = e.rank } )
                          :: !outbox
                      else next ()
                in
                next ())
              st.out;
            st, !outbox);
        is_done =
          (fun st ->
            Hashtbl.fold
              (fun _ q acc ->
                acc
                && Queue.fold
                     (fun acc e ->
                       acc
                       && not
                            (List.exists
                               (fun k -> k.target = e.target && k.dist = e.dist)
                               st.list))
                     true q)
              st.out true);
        msg_bits =
          (fun (Announce a) ->
            Dsf_util.Bitsize.id_bits ~n
            + Dsf_util.Bitsize.int_bits (Int.max 1 a.dist)
            + Dsf_util.Bitsize.id_bits ~n);
      }
    in
    let states, stats = sim_run_mutable ~env g proto in
    { ranks; lists = Array.map (fun st -> st.list) states }, stats
end

module Level_routing = struct
  open Dsf_core.Level_routing
  module Virtual_tree = Dsf_embed.Virtual_tree

  let route_phase ?(env = Sim.default_env) g vt ~origins =
    let n = Graph.n g in
    let proto : (route_state, int * int) protocol =
      {
        init =
          (fun view ->
            let v = view.Sim.node in
            let known = Hashtbl.create 8 in
            let mine = origins v in
            List.iter (fun lw -> Hashtbl.replace known lw (-1)) mine;
            { known; unsent = mine; lhat = []; marked = [] });
        step =
          (fun view ~round:_ st ~inbox ->
            let v = view.Sim.node in
            let st =
              List.fold_left
                (fun st (sender, ((_, _) as lw)) ->
                  if Hashtbl.mem st.known lw then st
                  else begin
                    Hashtbl.replace st.known lw sender;
                    { st with unsent = st.unsent @ [ lw ] }
                  end)
                st inbox
            in
            let rec dispatch st =
              match st.unsent with
              | [] -> st, []
              | ((lam, w) as lw) :: rest ->
                  if w = v then
                    dispatch { st with unsent = rest; lhat = lam :: st.lhat }
                  else begin
                    match Virtual_tree.route_next_hop vt v w with
                    | None -> dispatch { st with unsent = rest }
                    | Some nb ->
                        let eid =
                          match Graph.find_edge g v nb with
                          | Some id -> id
                          | None -> invalid_arg "Rand_dsf: next hop not adjacent"
                        in
                        ( { st with unsent = rest; marked = eid :: st.marked },
                          [ nb, lw ] )
                  end
            in
            dispatch st);
        is_done = (fun st -> st.unsent = []);
        msg_bits = (fun _ -> 2 * Dsf_util.Bitsize.id_bits ~n);
      }
    in
    sim_run_mutable ~env g proto

  let backtrace_phase ?(env = Sim.default_env) g ~tables ~bundles =
    let n = Graph.n g in
    let proto : (back_state, back_msg) protocol =
      {
        init =
          (fun view ->
            let v = view.Sim.node in
            { b_known = tables v; b_queue = bundles v; b_l = [] });
        step =
          (fun _view ~round:_ st ~inbox ->
            let st =
              List.fold_left
                (fun st (_, msg) -> { st with b_queue = st.b_queue @ [ msg ] })
                st inbox
            in
            let rec dispatch st =
              match st.b_queue with
              | [] -> st, []
              | msg :: rest -> begin
                  match Hashtbl.find_opt st.b_known msg.route with
                  | Some (-1) | None ->
                      dispatch
                        { st with b_queue = rest; b_l = msg.payload :: st.b_l }
                  | Some sender -> { st with b_queue = rest }, [ sender, msg ]
                end
            in
            dispatch st);
        is_done = (fun st -> st.b_queue = []);
        msg_bits = (fun _ -> 3 * Dsf_util.Bitsize.id_bits ~n);
      }
    in
    let recovery =
      {
        (Fault.immutable ()) with
        Fault.state_bits =
          (fun st ->
            63 * (1 + (3 * List.length st.b_queue) + List.length st.b_l));
      }
    in
    sim_run ~recovery ~env g proto
end

module F6 = struct
  type mark_state = {
    pending : int list;
    seen : (int, unit) Hashtbl.t;
    senders : (int, int list) Hashtbl.t;
    up_marks : (int, unit) Hashtbl.t;
  }

  let mark_phase ~env g ~parent ~labels =
    let proto : (mark_state, int) protocol =
      {
        init =
          (fun view ->
            let seen = Hashtbl.create 8 in
            let mine =
              List.filter
                (fun c ->
                  if Hashtbl.mem seen c then false
                  else begin
                    Hashtbl.add seen c ();
                    true
                  end)
                (labels view.Sim.node)
            in
            {
              pending = mine;
              seen;
              senders = Hashtbl.create 8;
              up_marks = Hashtbl.create 8;
            });
        step =
          (fun view ~round:_ st ~inbox ->
            let v = view.Sim.node in
            let fresh =
              List.filter_map
                (fun (sender, c) ->
                  Hashtbl.replace st.senders c
                    (sender
                    :: Option.value ~default:[] (Hashtbl.find_opt st.senders c));
                  if Hashtbl.mem st.seen c then None
                  else begin
                    Hashtbl.add st.seen c ();
                    Some c
                  end)
                inbox
            in
            match st.pending @ fresh with
            | [] -> { st with pending = [] }, []
            | c :: rest ->
                if parent.(v) >= 0 then begin
                  Hashtbl.replace st.up_marks c ();
                  { st with pending = rest }, [ parent.(v), c ]
                end
                else { st with pending = rest }, []);
        is_done = (fun st -> st.pending = []);
        msg_bits = (fun _ -> Dsf_util.Bitsize.id_bits ~n:(Graph.n g));
      }
    in
    fst (sim_run_mutable ~env g proto)

  type unmark_state = {
    u_senders : (int, int list) Hashtbl.t;
    u_own : (int, unit) Hashtbl.t;
    u_marks : (int, unit) Hashtbl.t;
    queues : (int, int Queue.t) Hashtbl.t;
  }

  let unmark_phase ~env g ~parent ~labels ~mark_states =
    let decide st c =
      match Option.value ~default:[] (Hashtbl.find_opt st.u_senders c) with
      | [ only ] when not (Hashtbl.mem st.u_own c) -> Some only
      | _ -> None
    in
    let enqueue st child c =
      let q =
        match Hashtbl.find_opt st.queues child with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace st.queues child q;
            q
      in
      Queue.add c q
    in
    let proto : (unmark_state, int) protocol =
      {
        init =
          (fun view ->
            let v = view.Sim.node in
            let (ms : mark_state) = mark_states.(v) in
            let u_own = Hashtbl.create 8 in
            List.iter (fun c -> Hashtbl.replace u_own c ()) (labels v);
            let st =
              {
                u_senders = ms.senders;
                u_own;
                u_marks = Hashtbl.copy ms.up_marks;
                queues = Hashtbl.create 4;
              }
            in
            if parent.(v) < 0 then
              Hashtbl.iter
                (fun c _ ->
                  match decide st c with
                  | Some child -> enqueue st child c
                  | None -> ())
                st.u_senders;
            st);
        step =
          (fun _view ~round:_ st ~inbox ->
            List.iter
              (fun (_, c) ->
                Hashtbl.remove st.u_marks c;
                match decide st c with
                | Some child -> enqueue st child c
                | None -> ())
              inbox;
            let outbox =
              Hashtbl.fold
                (fun child q acc ->
                  match Queue.take_opt q with
                  | Some c -> (child, c) :: acc
                  | None -> acc)
                st.queues []
            in
            st, outbox);
        is_done =
          (fun st ->
            Hashtbl.fold (fun _ q acc -> acc && Queue.is_empty q) st.queues true);
        msg_bits = (fun _ -> Dsf_util.Bitsize.id_bits ~n:(Graph.n g));
      }
    in
    fst (sim_run_mutable ~env g proto)

  (* [F6_protocol.run]: two runs, whose stats are their measured total. *)
  let run ?(env = Sim.default_env) g ~parent ~labels =
    Sim.measure ~env @@ fun env ->
    let mark_states = mark_phase ~env g ~parent ~labels in
    let unmark_states = unmark_phase ~env g ~parent ~labels ~mark_states in
    let kept = Array.make (Graph.m g) false in
    Array.iteri
      (fun v (st : unmark_state) ->
        if parent.(v) >= 0 && Hashtbl.length st.u_marks > 0 then begin
          match Graph.find_edge g v parent.(v) with
          | Some eid -> kept.(eid) <- true
          | None -> ()
        end)
      unmark_states;
    kept
end

module Pruning = struct
  open Dsf_core.Pruning

  let label_flood ?(env = Sim.default_env) g ~(tree : Dsf_congest.Bfs.tree)
      ~structure ~initial =
    let n = Graph.n g in
    let proto : (node_state, int * int) protocol =
      {
        init =
          (fun view ->
            let v = view.Sim.node in
            let mine = facts_create () in
            let log = ref [] in
            List.iter
              (fun fact ->
                if facts_apply structure mine fact then log := fact :: !log)
              (initial v);
            {
              is_root = v = tree.root;
              mine;
              shadow = facts_create ();
              log = !log;
            });
        step =
          (fun view ~round:_ st ~inbox ->
            let v = view.Sim.node in
            let st =
              List.fold_left
                (fun st (_, fact) ->
                  if facts_apply structure st.mine fact then
                    { st with log = fact :: st.log }
                  else st)
                st inbox
            in
            if v = tree.root then st, []
            else begin
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
                  st, [ tree.parent.(v), fact ]
              | None -> st, []
            end);
        is_done =
          (fun st ->
            st.is_root
            || Hashtbl.fold
                 (fun (c, lam) () acc ->
                   acc && Hashtbl.mem st.shadow.lc (c, lam))
                 st.mine.lc true);
        msg_bits = (fun _ -> 2 * Dsf_util.Bitsize.id_bits ~n);
      }
    in
    sim_run_mutable ~env g proto
end
