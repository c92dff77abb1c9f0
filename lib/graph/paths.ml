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
   int-array queue: each node is enqueued at most once, so n slots do.
   The parameter sweep passes no [parent] array and records none. *)
let bfs_fill ?parent (c : Graph.csr) ~dist ~queue ~src =
  Array.fill dist 0 (Array.length dist) inf;
  (match parent with
  | Some parent -> Array.fill parent 0 (Array.length parent) (-1)
  | None -> ());
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) + 1 in
    for p = c.off.(v) to c.off.(v + 1) - 1 do
      let nb = c.dst.(p) in
      if dist.(nb) = inf then begin
        dist.(nb) <- dv;
        (match parent with Some parent -> parent.(nb) <- v | None -> ());
        queue.(!tail) <- nb;
        incr tail
      end
    done
  done

let bfs g ~src =
  let n = Graph.n g in
  let dist = Array.make n inf and parent = Array.make n (-1) in
  bfs_fill ~parent (Graph.csr g) ~dist ~queue:(Array.make n 0) ~src;
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

(* Dial kernel of the parameter sweep.  The sweep reads only [dist] and
   [hops], never parents, so the order in which equal-distance nodes settle
   does not matter and a bucket queue can stand in for the heap.  With
   integer weights in [1, max_w], every entry in flight has a distance in
   [cur, cur + max_w], so [nbuckets] circular buckets (a power of two
   above [max_w]) hold one distance each.  An occupancy mask in one int,
   bit [i] for distance [cur + i], finds the next non-empty bucket with
   one count-trailing-zeros and moves with a shift.  Every predecessor of
   a node on a least-weight path lies in a strictly lower bucket, so a
   node's hop count is final when its bucket is drained: a strict distance
   improvement pushes the node, an equal-distance relaxation with fewer
   hops only lowers [hops].  Each bucket is a singly linked list of
   entries in [enode]/[enext]; a push happens only at a strict improvement
   along one directed edge out of a settled node (or at the source), so
   2m + 1 entries never overflow, and an entry whose node now has a
   smaller distance is stale. *)
type dial = {
  dc : Graph.csr;
  ddist : int array;
  dhops : int array;
  bmask : int;  (** bucket count minus one *)
  head : int array;  (** first entry per bucket, [-1] when empty *)
  enode : int array;
  enext : int array;
}

(* Buckets at most: the mask spans distances [cur, cur + max_w], and
   [ctz32] reads 32 bits.  Graphs with heavier edges sweep on the heap
   kernel. *)
let dial_max_buckets = 32

let dial_queue g ~max_w =
  let n = Graph.n g and cap = (2 * Graph.m g) + 1 in
  let nbuckets = ref 1 in
  while !nbuckets <= max_w do
    nbuckets := 2 * !nbuckets
  done;
  {
    dc = Graph.csr g;
    ddist = Array.make n inf;
    dhops = Array.make n inf;
    bmask = !nbuckets - 1;
    head = Array.make !nbuckets (-1);
    enode = Array.make cap 0;
    enext = Array.make cap 0;
  }

(* Count trailing zeros of a non-zero 32-bit value: isolate the lowest set
   bit and look it up through the de Bruijn sequence 0x077CB531. *)
let debruijn_ctz =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let ctz32 x =
  Char.code
    debruijn_ctz.[(((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27]

(* One source of the Dial kernel; every bucket is empty again on return.
   The pushes are written out inline so the loop allocates nothing. *)
let dial_sssp q ~src =
  let off = q.dc.Graph.off and dst = q.dc.Graph.dst and wgt = q.dc.Graph.wgt in
  let dist = q.ddist and hops = q.dhops and head = q.head in
  let enode = q.enode and enext = q.enext in
  let bmask = q.bmask in
  Array.fill dist 0 (Array.length dist) inf;
  Array.fill hops 0 (Array.length hops) inf;
  dist.(src) <- 0;
  hops.(src) <- 0;
  enode.(0) <- src;
  enext.(0) <- -1;
  head.(0) <- 0;
  let size = ref 1 and mask = ref 1 and cur = ref 0 in
  while !mask <> 0 do
    let k = ctz32 !mask in
    let d = !cur + k in
    cur := d;
    (* Shift bit 0 to distance [d], then clear it: its bucket drains now. *)
    mask := (!mask lsr k) lxor 1;
    let b = d land bmask in
    let e = ref head.(b) in
    head.(b) <- -1;
    while !e >= 0 do
      let v = enode.(!e) in
      e := enext.(!e);
      if dist.(v) = d then begin
        let h = hops.(v) + 1 in
        for p = off.(v) to off.(v + 1) - 1 do
          let u = dst.(p) and w = wgt.(p) in
          let nd = d + w in
          let du = dist.(u) in
          if nd < du then begin
            dist.(u) <- nd;
            hops.(u) <- h;
            let bu = nd land bmask and slot = !size in
            enode.(slot) <- u;
            enext.(slot) <- head.(bu);
            head.(bu) <- slot;
            size := slot + 1;
            mask := !mask lor (1 lsl w)
          end
          else if nd = du && h < hops.(u) then hops.(u) <- h
        done
      end
    done
  done

(* Word-parallel multi-source BFS (MS-BFS: Then et al., "The More the
   Merrier", VLDB 2014) for the [D] part of the sweep.  A block of up to
   [block_size] consecutive sources owns one bit each of an int word:
   [seen.(v)] holds the sources that have reached [v], and the frontier
   list pairs each node reached at the last level with the bits that
   reached it there.  One level scans every frontier node's CSR row once
   for all of its bits, accumulating the bits a neighbor has not seen in
   [next] (and listing the neighbor the first time its word turns
   non-zero); the next frontier is read off that list, so a level costs
   the frontier's degree sum, never n.  The block's largest eccentricity
   is the index of the last level that reached anything. *)
type msbfs = {
  mc : Graph.csr;
  seen : int array;
  next : int array;
  fnode : int array;  (** frontier nodes *)
  fbits : int array;  (** bits that reached [fnode.(j)] at the last level *)
  nnode : int array;  (** nodes whose [next] word is non-zero *)
}

(* 62 bits keep every block word clear of the sign bit. *)
let block_size = 62

let msbfs_workspace g =
  let n = Graph.n g in
  {
    mc = Graph.csr g;
    seen = Array.make n 0;
    next = Array.make n 0;
    fnode = Array.make n 0;
    fbits = Array.make n 0;
    nnode = Array.make n 0;
  }

(* The largest eccentricity among sources [first .. first + k - 1].
   Raises on a disconnected graph. *)
let msbfs_block m ~first ~k =
  let off = m.mc.Graph.off and dst = m.mc.Graph.dst in
  let seen = m.seen and next = m.next in
  let fnode = m.fnode and fbits = m.fbits and nnode = m.nnode in
  Array.fill seen 0 (Array.length seen) 0;
  for i = 0 to k - 1 do
    seen.(first + i) <- 1 lsl i;
    fnode.(i) <- first + i;
    fbits.(i) <- 1 lsl i
  done;
  let flen = ref k and level = ref 0 in
  while !flen > 0 do
    let nlen = ref 0 in
    for j = 0 to !flen - 1 do
      let v = fnode.(j) and b = fbits.(j) in
      for p = off.(v) to off.(v + 1) - 1 do
        let u = dst.(p) in
        let nb = b land lnot seen.(u) in
        if nb <> 0 then begin
          let x = next.(u) in
          if x = 0 then begin
            nnode.(!nlen) <- u;
            incr nlen
          end;
          next.(u) <- x lor nb
        end
      done
    done;
    (* [seen] moves only here, after the level: every bit above was
       masked against the words as they stood when the level began. *)
    for j = 0 to !nlen - 1 do
      let u = nnode.(j) in
      let b = next.(u) in
      next.(u) <- 0;
      seen.(u) <- seen.(u) lor b;
      fnode.(j) <- u;
      fbits.(j) <- b
    done;
    flen := !nlen;
    if !nlen > 0 then incr level
  done;
  let full = -1 lsr (63 - k) in
  Array.iter
    (fun w -> if w <> full then invalid_arg "Paths: disconnected graph")
    seen;
  !level

(* One task of the sweep: it pulls block indices from [next] until none
   are left, with one workspace for all of them.  Each block takes one
   MS-BFS for [D] and one kernel run per source for [WD] and [s] — the
   Dial kernel when every weight fits its buckets, the heap kernel
   otherwise. *)
let sweep_task g ~next =
  let n = Graph.n g and max_w = Graph.max_weight g in
  let run, dist, hops =
    if max_w < dial_max_buckets then
      let q = dial_queue g ~max_w in
      (fun src -> dial_sssp q ~src), q.ddist, q.dhops
    else
      let ws = workspace g in
      (fun src -> sssp ws ~src), ws.dist, ws.hops
  in
  let m = msbfs_workspace g in
  let d = ref 0 and wd = ref 0 and s = ref 0 in
  let b = ref (Atomic.fetch_and_add next 1) in
  while !b * block_size < n do
    let first = !b * block_size in
    let k = min block_size (n - first) in
    let e = msbfs_block m ~first ~k in
    if e > !d then d := e;
    for src = first to first + k - 1 do
      run src;
      for v = 0 to n - 1 do
        (* Int-typed comparisons: Stdlib.max is polymorphic. *)
        let dv = dist.(v) and hv = hops.(v) in
        if dv > !wd then wd := dv;
        if hv > !s then s := hv
      done
    done;
    b := Atomic.fetch_and_add next 1
  done;
  !d, !wd, !s

(* The all-sources sweep: blocks of sources spread over [jobs] domains,
   one task per domain, and the per-task triples max-reduced, so the
   result does not depend on [jobs] or on which task took which block. *)
let parameters ?(jobs = 1) g =
  let n = Graph.n g in
  (* Forced here, before the fan-out, so no task races on the CSR memo. *)
  ignore (Graph.csr g);
  let blocks = (n + block_size - 1) / block_size in
  let tasks = max 1 (min (min jobs Dsf_util.Pool.hard_cap) blocks) in
  let next = Atomic.make 0 in
  Array.fold_left
    (fun (d, wd, s) (d', wd', s') ->
      (if d' > d then d' else d), (if wd' > wd then wd' else wd),
      if s' > s then s' else s)
    (0, 0, 0)
    (Dsf_util.Pool.map_chunked ~jobs:tasks
       (fun () -> sweep_task g ~next)
       (Array.make tasks ()))

let diameter_unweighted g =
  let d, _, _ = parameters g in
  d

let diameter_weighted g =
  let _, wd, _ = parameters g in
  wd

let shortest_path_diameter g =
  let _, _, s = parameters g in
  s
