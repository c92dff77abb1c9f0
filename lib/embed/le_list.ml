module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
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
  stats : Dsf_congest.Sim.stats;
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
  let proto : (node_state, msg) Sim.protocol =
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
          let v = view.Sim.node in
          let weight_to sender =
            let w = ref (-1) in
            Array.iter
              (fun (nb, wt, _) -> if nb = sender then w := wt)
              view.Sim.nbrs;
            assert (!w >= 0);
            !w
          in
          (* Absorb announcements. *)
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
          (* Send one (still live) queued entry per neighbor. *)
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
          ignore v;
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
          Bitsize.id_bits ~n + Bitsize.int_bits (Int.max 1 a.dist)
          + Bitsize.id_bits ~n);
      wake = None;
    }
  in
  let states, stats = Sim.run ~env g proto in
  {
    ranks;
    lists = Array.map (fun st -> st.list) states;
    stats;
  }

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
