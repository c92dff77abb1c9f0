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

(* One accepted entry of a node's log.  [live] drops to false when a
   later insertion evicts the entry from the staircase; an entry never
   comes back, since whatever evicted it dominates every later copy. *)
type slot = {
  entry : entry;
  msg : msg;  (** the announcement every neighbor is sent *)
  mutable live : bool;
}

and msg = Announce of { target : int; dist : int; rank : int }

(* Staircase insertion: keep (target, dist, rank) iff no kept entry has
   dist <= its dist and rank >= its rank; inserting evicts (flags dead)
   the entries it dominates.  Lists are ascending in (dist, rank), and
   no kept entry dominates another, so both dist and rank strictly
   increase along a list: the dominating candidates are a prefix and
   the evicted entries a contiguous run.  [staircase_insert] takes an
   entry that is not [dominated]. *)
let rec dominated ~dist ~rank = function
  | [] -> false
  | k :: rest ->
      k.entry.dist <= dist
      && (k.entry.rank >= rank || dominated ~dist ~rank rest)

let staircase_insert list s =
  let e = s.entry in
  let rec evict = function
    | k :: rest when k.entry.rank <= e.rank ->
        k.live <- false;
        evict rest
    | rest -> rest
  in
  let rec place = function
    | k :: rest when k.entry.dist < e.dist -> k :: place rest
    | rest -> s :: evict rest
  in
  place list

(* A node's accepted entries in one append-only log, [log.(0 .. len-1)],
   read by one cursor per neighbor: the entries a neighbor has still to
   hear are the live ones at or after its cursor.  After every step each
   cursor sits on a live entry or at [len], and [behind] counts the
   cursors short of [len], so the node is done iff [behind = 0].  The
   neighbors are kept in send order. *)
type node_state = {
  mutable list : slot list;  (** the staircase *)
  mutable log : slot array;
  mutable len : int;
  nbr : int array;  (** neighbor ids, in send order *)
  wt : int array;  (** weight of the edge to [nbr.(j)] *)
  cursor : int array;
  mutable behind : int;
}

let append st s =
  if st.len = Array.length st.log then begin
    let log = Array.make (2 * st.len) s in
    Array.blit st.log 0 log 0 st.len;
    st.log <- log
  end;
  st.log.(st.len) <- s;
  st.len <- st.len + 1

(* The first live entry at or after [c], or [len]. *)
let rec park st c =
  if c < st.len && not st.log.(c).live then park st (c + 1) else c

let slot_of (entry : entry) =
  {
    entry;
    msg =
      Announce { target = entry.target; dist = entry.dist; rank = entry.rank };
    live = true;
  }

let flat_protocol ~ranks : (node_state, msg) Sim.flat_protocol =
  let n = Array.length ranks in
  {
    fp_init =
      (fun view ->
        let v = view.Sim.node in
        let self =
          slot_of { target = v; dist = 0; rank = ranks.(v); next_hop = -1 }
        in
        (* Sends go out in the reverse of a [Hashtbl.iter] walk over the
           neighbors, the order of the original list protocol; arrival
           order breaks next-hop ties, so it is part of the output. *)
        let table = Hashtbl.create 4 in
        Array.iter
          (fun (nb, wt, _) -> Hashtbl.replace table nb wt)
          view.Sim.nbrs;
        let order = Hashtbl.fold (fun nb wt acc -> (nb, wt) :: acc) table [] in
        let deg = List.length order in
        {
          list = [ self ];
          log = Array.make 4 self;
          len = 1;
          nbr = Array.of_list (List.map fst order);
          wt = Array.of_list (List.map snd order);
          cursor = Array.make deg 0;
          behind = deg;
        });
    fp_step =
      (fun _view ~round:_ st ~inbox ~emit ->
        let weight_to sender =
          let j = ref 0 in
          while st.nbr.(!j) <> sender do
            incr j
          done;
          st.wt.(!j)
        in
        (* Absorb announcements. *)
        for i = 0 to Sim.inbox_len inbox - 1 do
          let sender = Sim.inbox_src inbox i in
          let (Announce a) = Sim.inbox_msg inbox i in
          let dist = a.dist + weight_to sender in
          if not (dominated ~dist ~rank:a.rank st.list) then begin
            let s =
              slot_of
                { target = a.target; dist; rank = a.rank; next_hop = sender }
            in
            st.list <- staircase_insert st.list s;
            append st s
          end
        done;
        (* Send each neighbor the next live entry it has not heard,
           then park its cursor on the following live one. *)
        let behind = ref 0 in
        for j = 0 to Array.length st.nbr - 1 do
          let c = park st st.cursor.(j) in
          let c =
            if c < st.len then begin
              emit ~dst:st.nbr.(j) st.log.(c).msg;
              park st (c + 1)
            end
            else c
          in
          st.cursor.(j) <- c;
          if c < st.len then incr behind
        done;
        st.behind <- !behind;
        st);
    (* A done node's cursors all sit at the log's end, so a step with
       no mail sends nothing and changes nothing. *)
    fp_is_done = (fun st -> st.behind = 0);
    fp_msg_bits =
      (fun (Announce a) ->
        Bitsize.id_bits ~n + Bitsize.int_bits (Int.max 1 a.dist)
        + Bitsize.id_bits ~n);
  }

let build ?(env = Sim.default_env) rng g =
  let ranks = Dsf_util.Rng.permutation rng (Graph.n g) in
  (* The logs and cursors are mutable, and a hardened run takes no
     recovery contract for them, so only crash-free plans are masked. *)
  let states, _ = Fault.sim_run ~env g (flat_protocol ~ranks) in
  {
    ranks;
    lists = Array.map (fun st -> List.map (fun s -> s.entry) st.list) states;
  }

let highest_within t v r =
  let rec last acc = function
    | [] -> acc
    | e :: rest -> if e.dist <= r then last (Some e) rest else acc
  in
  last None t.lists.(v)

let max_list_length t =
  Array.fold_left (fun acc l -> Int.max acc (List.length l)) 0 t.lists

(* A test oracle: the staircase recomputed from centralized distances. *)
let verify_against g t =
  let n = Graph.n g in
  let ok = ref true in
  for v = 0 to n - 1 do
    let dist, _ =
      (Dsf_graph.Paths.dijkstra g ~src:v [@lint.allow "central-oracle"])
    in
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
