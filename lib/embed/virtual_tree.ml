module Graph = Dsf_graph.Graph

type t = {
  le : Le_list.t;
  beta_num : int;
  levels : int;
  ancestors : int array array;
  trunc_level : int array;
  s_set : int list;
  closest_s : int array;
  voronoi_parent : int array;  (** next hop towards the closest S node *)
}

let beta_den = 1024

let beta_ball t i = t.beta_num * (1 lsl i) / beta_den

let ceil_log2 = Dsf_util.Intmath.ceil_log2

let build ?(env = Dsf_congest.Sim.default_env) rng ?truncate_at ~wd_bound g =
  let n = Graph.n g in
  let le = Le_list.build ~env rng g in
  let beta_num = beta_den + Dsf_util.Rng.int rng beta_den in
  let levels = Int.max 1 (ceil_log2 (Int.max 2 wd_bound)) in
  let ranks = le.Le_list.ranks in
  (* S, the [size] highest-ranked nodes, when truncating: the ranks are a
     permutation of 0 .. n-1, so v is in S iff rank(v) >= n - size.  The
     list holds S in descending rank, off the inverse permutation. *)
  let s_set, closest_s, voronoi_parent =
    match truncate_at with
    | None -> [], Array.make n (-1), Array.make n (-1)
    | Some size ->
        let size = Int.min size n in
        let node_of_rank = Array.make n 0 in
        Array.iteri (fun v r -> node_of_rank.(r) <- v) ranks;
        let s = List.init size (fun i -> node_of_rank.(n - 1 - i)) in
        let res =
          Dsf_congest.Bellman_ford.run ~env g
            ~sources:(List.map (fun v -> v, 0) s)
        in
        ( s,
          res.Dsf_congest.Bellman_ford.src_of,
          res.Dsf_congest.Bellman_ford.parent )
  in
  let s_floor = n - List.length s_set in
  let in_s v = ranks.(v) >= s_floor in
  let trunc_level = Array.make n (levels + 1) in
  let ancestors =
    Array.init n (fun v ->
        Array.init (levels + 1) (fun i ->
            let r = beta_num * (1 lsl i) / beta_den in
            let anc =
              match Le_list.highest_within le v r with
              | Some e -> e.Le_list.target
              | None -> v
            in
            (* Truncation: the first level whose ball meets S cuts the
               chain; beyond it the leaf connects to its closest S node. *)
            if in_s anc && trunc_level.(v) > i then
              trunc_level.(v) <- i;
            anc))
  in
  (* Rewrite truncated levels to the closest S node. *)
  if s_set <> [] then
    for v = 0 to n - 1 do
      for i = 0 to levels do
        if i >= trunc_level.(v) then
          ancestors.(v).(i) <- (if closest_s.(v) >= 0 then closest_s.(v) else v)
      done
    done;
  {
    le;
    beta_num;
    levels;
    ancestors;
    trunc_level;
    s_set;
    closest_s;
    voronoi_parent;
  }

let route_next_hop t v target =
  if v = target then None
  else if t.closest_s.(v) = target && t.voronoi_parent.(v) >= 0 then
    Some t.voronoi_parent.(v)
  else begin
    let entry =
      List.find_opt (fun e -> e.Le_list.target = target) t.le.Le_list.lists.(v)
    in
    match entry with
    | Some e -> Some e.Le_list.next_hop
    | None -> None
  end

let walk_path t v target =
  (* Follow next hops from v to target; returns the node sequence. *)
  let rec go acc u guard =
    if u = target || guard <= 0 then List.rev (u :: acc)
    else begin
      match route_next_hop t u target with
      | Some nb -> go (u :: acc) nb (guard - 1)
      | None -> List.rev (u :: acc)
    end
  in
  go [] v (Array.length t.closest_s)

let paths_per_node t =
  let n = Array.length t.ancestors in
  let targets_of = Array.init n (fun _ -> Hashtbl.create 8) in
  for v = 0 to n - 1 do
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun w ->
        if w <> v && not (Hashtbl.mem seen w) then begin
          Hashtbl.add seen w ();
          List.iter
            (fun u -> if u <> w then Hashtbl.replace targets_of.(u) w ())
            (walk_path t v w)
        end)
      t.ancestors.(v)
  done;
  Array.map Hashtbl.length targets_of

let tree_distance t u v =
  let beta = float_of_int t.beta_num /. float_of_int beta_den in
  let rec first_common i =
    if i > t.levels then t.levels
    else if t.ancestors.(u).(i) = t.ancestors.(v).(i) then i
    else first_common (i + 1)
  in
  let i = first_common 0 in
  (* Each side pays beta * (2^0 + 2^1 + ... + 2^i) = beta * (2^{i+1} - 1). *)
  2. *. beta *. float_of_int ((1 lsl (i + 1)) - 1)

let max_ancestor_distance t =
  let best = ref 0 in
  Array.iteri
    (fun v ancs ->
      Array.iter
        (fun w ->
          if w <> v then
            List.iter
              (fun e ->
                if e.Le_list.target = w && e.Le_list.dist > !best then
                  best := e.Le_list.dist)
              t.le.Le_list.lists.(v))
        ancs)
    t.ancestors;
  !best
