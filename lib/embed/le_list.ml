module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Fault = Dsf_congest.Fault
module Bitsize = Dsf_util.Bitsize

type entry = {
  target : int;
  dist : int;
  rank : int;
  next_hop : int;
}

type t = {
  ranks : int array;
  lists : entry list array;
}

(* Staircase insertion: keep (target, dist, rank) iff no kept entry has
   dist <= its dist and rank >= its rank; inserting evicts entries it
   dominates.  Lists are ascending in (dist, rank). *)
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
  (* Per-neighbor outgoing queues of entries still to announce. *)
  out : (int, entry Queue.t) Hashtbl.t;
}

type msg = Announce of { target : int; dist : int; rank : int }

let build ?(env = Sim.default_env) rng g =
  let n = Graph.n g in
  let ranks = Dsf_util.Rng.permutation rng n in
  let proto : (node_state, msg) Sim.flat_protocol =
    {
      fp_init =
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
      fp_step =
        (fun view ~round:_ st ~inbox ~emit ->
          let weight_to sender =
            let w = ref (-1) in
            Array.iter
              (fun (nb, wt, _) -> if nb = sender then w := wt)
              view.Sim.nbrs;
            assert (!w >= 0);
            !w
          in
          (* Absorb announcements. *)
          let list = ref st.list in
          for i = 0 to Sim.inbox_len inbox - 1 do
            let sender = Sim.inbox_src inbox i in
            let (Announce a) = Sim.inbox_msg inbox i in
            let cand =
              {
                target = a.target;
                dist = a.dist + weight_to sender;
                rank = a.rank;
                next_hop = sender;
              }
            in
            match staircase_insert !list cand with
            | None -> ()
            | Some l ->
                Hashtbl.iter (fun _ q -> Queue.add cand q) st.out;
                list := l
          done;
          let st = { st with list = !list } in
          (* Send one (still live) queued entry per neighbor.  The sends
             are collected by prepending in table order, so they go out in
             reverse table order. *)
          let outbox = ref [] in
          Hashtbl.iter
            (fun nb q ->
              let rec next () =
                match Queue.take_opt q with
                | None -> ()
                | Some e ->
                    (* Skip entries we no longer hold (superseded). *)
                    if
                      List.exists
                        (fun k -> k.target = e.target && k.dist = e.dist)
                        st.list
                    then
                      outbox :=
                        (nb, Announce { target = e.target; dist = e.dist; rank = e.rank })
                        :: !outbox
                    else next ()
              in
              next ())
            st.out;
          List.iter (fun (nb, m) -> emit ~dst:nb m) !outbox;
          st);
      fp_is_done =
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
      fp_msg_bits =
        (fun (Announce a) ->
          Bitsize.id_bits ~n + Bitsize.int_bits (Int.max 1 a.dist)
          + Bitsize.id_bits ~n);
      fp_wake = None;
    }
  in
  (* The per-neighbor queues are mutable, and a hardened run takes no
     recovery contract for them, so only crash-free plans are masked. *)
  let states, _ = Fault.sim_run ~env g proto in
  { ranks; lists = Array.map (fun st -> st.list) states }

let highest_within t v r =
  let rec last acc = function
    | [] -> acc
    | e :: rest -> if e.dist <= r then last (Some e) rest else acc
  in
  last None t.lists.(v)

let max_list_length t =
  Array.fold_left (fun acc l -> Int.max acc (List.length l)) 0 t.lists

let verify_against g t =
  let n = Graph.n g in
  let ok = ref true in
  for v = 0 to n - 1 do
    let dist, _ = Dsf_graph.Paths.dijkstra g ~src:v in
    (* Expected staircase: scan nodes by (dist, -rank); keep strictly
       increasing ranks. *)
    let order =
      List.init n Fun.id
      |> List.filter (fun w -> dist.(w) < max_int)
      |> List.sort (fun a b ->
             let c = Int.compare dist.(a) dist.(b) in
             if c <> 0 then c else Int.compare t.ranks.(b) t.ranks.(a))
    in
    let expected =
      List.fold_left
        (fun (best, acc) w ->
          if t.ranks.(w) > best then t.ranks.(w), (w, dist.(w)) :: acc
          else best, acc)
        (-1, []) order
      |> snd |> List.rev
    in
    let actual = List.map (fun e -> e.target, e.dist) t.lists.(v) in
    let same (w, d) (w', d') = Int.equal w w' && Int.equal d d' in
    if not (List.equal same expected actual) then ok := false
  done;
  !ok
