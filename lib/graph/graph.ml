type edge = { u : int; v : int; w : int; id : int }

(* Flat compressed-sparse-row mirror of the adjacency structure, built once
   at construction.  Directed position p (one per edge direction, 2m total)
   lives in its source node's row [off.(v) .. off.(v+1) - 1] and aligns
   index-for-index with [adj v]: position [off.(v) + i] describes the same
   incident edge as [(adj v).(i)].  [srt] stores each row's positions
   re-sorted by neighbor id so (src, dst) -> position resolves by binary
   search with no per-node hash tables. *)
type csr = {
  off : int array;
  dst : int array;
  wgt : int array;
  eid : int array;
  twin : int array;
  srt : int array;
}

type t = {
  n : int;
  edges : edge array;
  adj : (int * int * int) array array;
  (* Build-once memo of the CSR view.  Deferred so graphs that are never
     simulated (centralized references, transform intermediates) skip the
     O(m) construction, and memoized so multi-phase algorithms share one
     physical view across every primitive call.  The race on this field is
     benign: concurrent forcing builds equal views and one pointer write
     wins atomically — but the flat engine still forces it before fanning
     out domains so workers never build it. *)
  mutable csr_memo : csr option;
  (* Build-once memo of the (D, WD, s) triple, filled only by
     [Paths.parameters]: its all-sources sweep is O(n·m log n), so each
     graph pays it at most once per process.  Same benign race as
     [csr_memo]. *)
  mutable params_memo : (int * int * int) option;
}

let build_csr ~n edges adj =
  let m = Array.length edges in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length adj.(v)
  done;
  let dst = Array.make (2 * m) 0 in
  let wgt = Array.make (2 * m) 0 in
  let eid = Array.make (2 * m) 0 in
  let fill = Array.make n 0 in
  (* Position of each edge in its u-row / v-row, for the twin pointers. *)
  let upos = Array.make m 0 in
  let vpos = Array.make m 0 in
  Array.iter
    (fun e ->
      let pu = off.(e.u) + fill.(e.u) in
      dst.(pu) <- e.v;
      wgt.(pu) <- e.w;
      eid.(pu) <- e.id;
      upos.(e.id) <- pu;
      fill.(e.u) <- fill.(e.u) + 1;
      let pv = off.(e.v) + fill.(e.v) in
      dst.(pv) <- e.u;
      wgt.(pv) <- e.w;
      eid.(pv) <- e.id;
      vpos.(e.id) <- pv;
      fill.(e.v) <- fill.(e.v) + 1)
    edges;
  let twin = Array.make (2 * m) 0 in
  for id = 0 to m - 1 do
    twin.(upos.(id)) <- vpos.(id);
    twin.(vpos.(id)) <- upos.(id)
  done;
  let srt = Array.init (2 * m) Fun.id in
  for v = 0 to n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    (* Insertion sort of the row's positions by neighbor id: rows are short
       and already nearly sorted on most generators. *)
    for i = lo + 1 to hi - 1 do
      let p = srt.(i) in
      let key = dst.(p) in
      let j = ref (i - 1) in
      while !j >= lo && dst.(srt.(!j)) > key do
        srt.(!j + 1) <- srt.(!j);
        decr j
      done;
      srt.(!j + 1) <- p
    done
  done;
  { off; dst; wgt; eid; twin; srt }

let first_invalid_edge ~n triples =
  let m = Array.length triples in
  let seen = Hashtbl.create m in
  let rec go i =
    if i = m then None
    else begin
      let u, v, w = triples.(i) in
      let bad msg = Some (i, "Graph.make: " ^ msg) in
      if u < 0 || u >= n || v < 0 || v >= n then bad "endpoint out of range"
      else if u = v then bad "self-loop"
      else if w <= 0 then bad "non-positive weight"
      else begin
        let key = min u v, max u v in
        if Hashtbl.mem seen key then bad "duplicate edge"
        else begin
          Hashtbl.add seen key ();
          go (i + 1)
        end
      end
    end
  in
  go 0

let make_arr ~n triples =
  if n <= 0 then invalid_arg "Graph.make: n must be positive";
  Option.iter (fun (_, msg) -> invalid_arg msg) (first_invalid_edge ~n triples);
  let edges =
    Array.mapi (fun id (u, v, w) -> { u; v; w; id }) triples
  in
  let deg = Array.make n 0 in
  Array.iter
    (fun e ->
      deg.(e.u) <- deg.(e.u) + 1;
      deg.(e.v) <- deg.(e.v) + 1)
    edges;
  let adj = Array.init n (fun v -> Array.make deg.(v) (0, 0, 0)) in
  let fill = Array.make n 0 in
  Array.iter
    (fun e ->
      adj.(e.u).(fill.(e.u)) <- (e.v, e.w, e.id);
      fill.(e.u) <- fill.(e.u) + 1;
      adj.(e.v).(fill.(e.v)) <- (e.u, e.w, e.id);
      fill.(e.v) <- fill.(e.v) + 1)
    edges;
  { n; edges; adj; csr_memo = None; params_memo = None }

let make ~n edge_triples = make_arr ~n (Array.of_list edge_triples)

let unweighted ~n pairs = make ~n (List.map (fun (u, v) -> u, v, 1) pairs)

let unweighted_arr ~n pairs =
  make_arr ~n (Array.map (fun (u, v) -> u, v, 1) pairs)

let n g = g.n
let m g = Array.length g.edges
let edges g = g.edges
let edge g id = g.edges.(id)
let adj g v = g.adj.(v)
let degree g v = Array.length g.adj.(v)

let csr g =
  match g.csr_memo with
  | Some c -> c
  | None ->
      let c = build_csr ~n:g.n g.edges g.adj in
      g.csr_memo <- Some c;
      c

let params g ~compute =
  match g.params_memo with
  | Some p -> p
  | None ->
      let p = compute g in
      g.params_memo <- Some p;
      p

let pos c ~src ~dst:d =
  if src < 0 || src + 1 >= Array.length c.off then -1
  else begin
    let lo = ref c.off.(src) and hi = ref (c.off.(src + 1) - 1) in
    let found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let p = c.srt.(mid) in
      let nb = c.dst.(p) in
      if nb = d then begin
        found := p;
        lo := !hi + 1
      end
      else if nb < d then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let csr_pos g ~src ~dst = pos (csr g) ~src ~dst

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    d := max !d (degree g v)
  done;
  !d

let total_weight g = Array.fold_left (fun acc e -> acc + e.w) 0 g.edges

let max_weight g = Array.fold_left (fun acc e -> max acc e.w) 0 g.edges

let max_total_weight = 1 lsl 50

(* Count the budget down instead of the total up, so no sum can
   overflow. *)
let over_weight_bound ws =
  let rec go i left = function
    | [] -> None
    | w :: rest -> if w > left then Some i else go (i + 1) (left - w) rest
  in
  go 0 max_total_weight ws

let endpoints g id =
  let e = g.edges.(id) in
  e.u, e.v

let other_endpoint g ~eid v =
  let e = g.edges.(eid) in
  if e.u = v then e.v
  else begin
    assert (e.v = v);
    e.u
  end

let find_edge g u v =
  let c = csr g in
  match pos c ~src:u ~dst:v with
  | -1 -> None
  | p -> Some c.eid.(p)

let connected_components g =
  let uf = Dsf_util.Union_find.create g.n in
  Array.iter (fun e -> ignore (Dsf_util.Union_find.union uf e.u e.v)) g.edges;
  Array.init g.n (fun v -> Dsf_util.Union_find.find uf v)

let is_connected g =
  let comp = connected_components g in
  Array.for_all (fun c -> c = comp.(0)) comp

let edge_set_weight g selected =
  let acc = ref 0 in
  Array.iter (fun e -> if selected.(e.id) then acc := !acc + e.w) g.edges;
  !acc

let edge_list_of_set g selected =
  Array.to_list g.edges |> List.filter (fun e -> selected.(e.id))

let subgraph_union_find g selected =
  let uf = Dsf_util.Union_find.create g.n in
  Array.iter
    (fun e -> if selected.(e.id) then ignore (Dsf_util.Union_find.union uf e.u e.v))
    g.edges;
  uf

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.n (m g);
  Array.iter
    (fun e -> Format.fprintf ppf "  %d -- %d  (w=%d, id=%d)@," e.u e.v e.w e.id)
    g.edges;
  Format.fprintf ppf "@]"
