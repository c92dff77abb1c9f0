let inf = max_int

(* Workspace of the lexicographic (weight, hops) Dijkstra kernel: the
   result arrays plus a lazy binary min-heap of (d, h, v) entries held in
   three parallel int arrays.  Every push is a strict improvement along one
   directed edge out of a just-settled node (or the source), so 2m + 1
   slots never overflow.  One workspace serves any number of sources. *)
type ws = {
  c : Graph.csr;
  dist : int array;
  hops : int array;
  parent : int array;
  hd : int array;
  hh : int array;
  hv : int array;
  mutable size : int;
}

let workspace g =
  let n = Graph.n g and cap = (2 * Graph.m g) + 1 in
  {
    c = Graph.csr g;
    dist = Array.make n inf;
    hops = Array.make n inf;
    parent = Array.make n (-1);
    hd = Array.make cap 0;
    hh = Array.make cap 0;
    hv = Array.make cap 0;
    size = 0;
  }

(* Strict lexicographic order on (d, h); ties between equal keys stay
   where the sift rules leave them, exactly as in [Dsf_util.Heap]. *)
let less (d1 : int) (h1 : int) d2 h2 = d1 < d2 || (d1 = d2 && h1 < h2)

(* [Dsf_util.Heap.push]'s sift-up, with the moving entry held in registers
   and written once at its final slot. *)
let push ws d h v =
  let i = ref ws.size in
  ws.size <- ws.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if less d h ws.hd.(p) ws.hh.(p) then begin
      ws.hd.(!i) <- ws.hd.(p);
      ws.hh.(!i) <- ws.hh.(p);
      ws.hv.(!i) <- ws.hv.(p);
      i := p
    end
    else continue := false
  done;
  ws.hd.(!i) <- d;
  ws.hh.(!i) <- h;
  ws.hv.(!i) <- v

(* [Dsf_util.Heap.pop]'s removal: the last entry moves to the root and
   sifts down towards the strictly smaller child, left child first. *)
let pop_min ws =
  let size = ws.size - 1 in
  ws.size <- size;
  if size > 0 then begin
    let d = ws.hd.(size) and h = ws.hh.(size) and v = ws.hv.(size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let best = ref !i and bd = ref d and bh = ref h in
      if l < size && less ws.hd.(l) ws.hh.(l) !bd !bh then begin
        best := l;
        bd := ws.hd.(l);
        bh := ws.hh.(l)
      end;
      if r < size && less ws.hd.(r) ws.hh.(r) !bd !bh then best := r;
      if !best = !i then continue := false
      else begin
        ws.hd.(!i) <- ws.hd.(!best);
        ws.hh.(!i) <- ws.hh.(!best);
        ws.hv.(!i) <- ws.hv.(!best);
        i := !best
      end
    done;
    ws.hd.(!i) <- d;
    ws.hh.(!i) <- h;
    ws.hv.(!i) <- v
  end

(* Lexicographic Dijkstra on (weight, hops): among least-weight paths we keep
   one with the fewest hops, which is exactly the path family the
   shortest-path diameter [s] is defined over.  A node's key only ever
   strictly improves until it settles, so the entry carrying its current
   key is unique and pops before any stale one; an entry whose key no
   longer matches is stale.  With positive weights a settled node can
   never improve again, so no settled flags are needed, and the parent
   written at the last strict improvement is the one the winning entry
   carried. *)
let sssp ws ~src =
  let c = ws.c in
  Array.fill ws.dist 0 (Array.length ws.dist) inf;
  Array.fill ws.hops 0 (Array.length ws.hops) inf;
  Array.fill ws.parent 0 (Array.length ws.parent) (-1);
  ws.dist.(src) <- 0;
  ws.hops.(src) <- 0;
  ws.size <- 0;
  push ws 0 0 src;
  while ws.size > 0 do
    let d = ws.hd.(0) and h = ws.hh.(0) and v = ws.hv.(0) in
    pop_min ws;
    if d = ws.dist.(v) && h = ws.hops.(v) then
      for p = c.Graph.off.(v) to c.Graph.off.(v + 1) - 1 do
        let nb = c.Graph.dst.(p) in
        let nd = d + c.Graph.wgt.(p) and nh = h + 1 in
        if less nd nh ws.dist.(nb) ws.hops.(nb) then begin
          ws.dist.(nb) <- nd;
          ws.hops.(nb) <- nh;
          ws.parent.(nb) <- v;
          push ws nd nh nb
        end
      done
  done

let dijkstra_hops g ~src =
  let ws = workspace g in
  sssp ws ~src;
  ws.dist, ws.parent, ws.hops

let dijkstra g ~src =
  let dist, parent, _ = dijkstra_hops g ~src in
  dist, parent

let shortest_path g ~src ~dst =
  let dist, parent, _ = dijkstra_hops g ~src in
  if dist.(dst) = inf then None
  else begin
    let rec build acc v = if v = src then v :: acc else build (v :: acc) parent.(v) in
    Some (build [] dst, dist.(dst))
  end

let path_edges g nodes =
  let rec go acc = function
    | [] | [ _ ] -> List.rev acc
    | u :: (v :: _ as rest) -> begin
        match Graph.find_edge g u v with
        | Some id -> go (id :: acc) rest
        | None -> invalid_arg "Paths.path_edges: non-adjacent consecutive nodes"
      end
  in
  go [] nodes

(* BFS over the CSR rows (same neighbor order as [Graph.adj]) with an
   int-array queue: each node is enqueued at most once, so n slots do. *)
let bfs_fill (c : Graph.csr) ~dist ~parent ~queue ~src =
  Array.fill dist 0 (Array.length dist) inf;
  Array.fill parent 0 (Array.length parent) (-1);
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    for p = c.off.(v) to c.off.(v + 1) - 1 do
      let nb = c.dst.(p) in
      if dist.(nb) = inf then begin
        dist.(nb) <- dist.(v) + 1;
        parent.(nb) <- v;
        queue.(!tail) <- nb;
        incr tail
      end
    done
  done

let bfs g ~src =
  let n = Graph.n g in
  let dist = Array.make n inf and parent = Array.make n (-1) in
  bfs_fill (Graph.csr g) ~dist ~parent ~queue:(Array.make n 0) ~src;
  dist, parent

let bfs_multi g ~srcs =
  let n = Graph.n g in
  let dist = Array.make n inf in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) = inf then begin
        dist.(s) <- 0;
        Queue.add s q
      end)
    srcs;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun (nb, _, _) ->
        if dist.(nb) = inf then begin
          dist.(nb) <- dist.(v) + 1;
          Queue.add nb q
        end)
      (Graph.adj g v)
  done;
  dist

let all_pairs g =
  let ws = workspace g in
  Array.init (Graph.n g) (fun src ->
      sssp ws ~src;
      Array.copy ws.dist)

let eccentricity_unweighted g v =
  let dist, _ = bfs g ~src:v in
  Array.fold_left
    (fun acc d ->
      if d = inf then invalid_arg "Paths: disconnected graph" else max acc d)
    0 dist

(* The all-sources sweep behind [parameters]: one BFS and one kernel run
   per source, all sharing one workspace. *)
let sweep g =
  let n = Graph.n g in
  let ws = workspace g in
  let bd = Array.make n inf and bp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let d = ref 0 and wd = ref 0 and s = ref 0 in
  for src = 0 to n - 1 do
    bfs_fill ws.c ~dist:bd ~parent:bp ~queue ~src;
    sssp ws ~src;
    for v = 0 to n - 1 do
      (* Int-typed comparisons: Stdlib.max is polymorphic. *)
      let bv = bd.(v) and dv = ws.dist.(v) and hv = ws.hops.(v) in
      if bv = inf then invalid_arg "Paths: disconnected graph";
      if bv > !d then d := bv;
      if dv > !wd then wd := dv;
      if hv > !s then s := hv
    done
  done;
  !d, !wd, !s

let parameters g = Graph.params g ~compute:sweep

let diameter_unweighted g =
  let d, _, _ = parameters g in
  d

let diameter_weighted g =
  let _, wd, _ = parameters g in
  wd

let shortest_path_diameter g =
  let _, _, s = parameters g in
  s
