open Dsf_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* A diamond with a heavy direct edge: 0-1-3 (w 1+1) beats 0-3 (w 5);
   0-2-3 costs 2+2. *)
let diamond () =
  Graph.make ~n:4 [ 0, 1, 1; 1, 3, 1; 0, 2, 2; 2, 3, 2; 0, 3, 5 ]

(* ----------------------------------------------------------------- Graph *)

let test_graph_basic () =
  let g = diamond () in
  check Alcotest.int "n" 4 (Graph.n g);
  check Alcotest.int "m" 5 (Graph.m g);
  check Alcotest.int "degree 0" 3 (Graph.degree g 0);
  check Alcotest.int "max degree" 3 (Graph.max_degree g);
  check Alcotest.int "total weight" 11 (Graph.total_weight g);
  check Alcotest.int "max weight" 5 (Graph.max_weight g)

let test_graph_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self-loop")
    (fun () -> ignore (Graph.make ~n:2 [ 0, 0, 1 ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.make: duplicate edge") (fun () ->
      ignore (Graph.make ~n:2 [ 0, 1, 1; 1, 0, 2 ]));
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Graph.make: non-positive weight") (fun () ->
      ignore (Graph.make ~n:2 [ 0, 1, 0 ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.make: endpoint out of range") (fun () ->
      ignore (Graph.make ~n:2 [ 0, 2, 1 ]))

let test_graph_edges () =
  let g = diamond () in
  (match Graph.find_edge g 0 3 with
  | Some id ->
      let u, v = Graph.endpoints g id in
      Alcotest.(check bool) "endpoints" true ((u, v) = (0, 3) || (u, v) = (3, 0));
      check Alcotest.int "other endpoint" 3 (Graph.other_endpoint g ~eid:id 0)
  | None -> Alcotest.fail "edge 0-3 should exist");
  check Alcotest.(option int) "absent edge" None (Graph.find_edge g 1 2)

let test_graph_connectivity () =
  Alcotest.(check bool) "diamond connected" true (Graph.is_connected (diamond ()));
  let g = Graph.make ~n:4 [ 0, 1, 1; 2, 3, 1 ] in
  Alcotest.(check bool) "two components" false (Graph.is_connected g);
  let comp = Graph.connected_components g in
  Alcotest.(check bool) "0~1" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "0!~2" false (comp.(0) = comp.(2))

let test_edge_set_weight () =
  let g = diamond () in
  let f = Array.make (Graph.m g) false in
  f.(0) <- true;
  f.(1) <- true;
  check Alcotest.int "selected weight" 2 (Graph.edge_set_weight g f);
  check Alcotest.int "selected edges" 2 (List.length (Graph.edge_list_of_set g f))

(* ------------------------------------------------------------------- CSR *)

(* Checks every CSR invariant the flat simulator engine relies on:
   position/adj alignment, offset monotonicity, twin involution across the
   edge direction, and the sorted index behind [csr_pos]. *)
let csr_consistent g =
  let open Graph in
  let c = csr g in
  let n = n g and m = m g in
  let ok = ref true in
  let fail _why = ok := false in
  if Array.length c.off <> n + 1 || c.off.(0) <> 0 || c.off.(n) <> 2 * m then
    fail "offsets";
  for v = 0 to n - 1 do
    let row = adj g v in
    if c.off.(v + 1) - c.off.(v) <> Array.length row then fail "row length";
    Array.iteri
      (fun i (nb, w, id) ->
        let p = c.off.(v) + i in
        if c.dst.(p) <> nb || c.wgt.(p) <> w || c.eid.(p) <> id then
          fail "adj alignment";
        let t = c.twin.(p) in
        if c.eid.(t) <> id || c.dst.(t) <> v || c.twin.(t) <> p then
          fail "twin involution";
        if csr_pos g ~src:v ~dst:nb <> p then fail "csr_pos roundtrip")
      row;
    (* srt row sorted strictly by neighbor id. *)
    for i = c.off.(v) + 1 to c.off.(v + 1) - 1 do
      if c.dst.(c.srt.(i - 1)) >= c.dst.(c.srt.(i)) then fail "srt order"
    done
  done;
  (* Absent edges resolve to -1. *)
  for v = 0 to n - 1 do
    let row = adj g v in
    let nbrs = Array.to_list row |> List.map (fun (nb, _, _) -> nb) in
    for u = 0 to n - 1 do
      if u <> v && not (List.mem u nbrs) then
        if csr_pos g ~src:v ~dst:u <> -1 then fail "phantom edge"
    done
  done;
  if csr_pos g ~src:(-1) ~dst:0 <> -1 || csr_pos g ~src:n ~dst:0 <> -1 then
    fail "out-of-range src";
  !ok

let test_csr_diamond () =
  Alcotest.(check bool) "csr invariants" true (csr_consistent (diamond ()))

let test_make_arr_equiv () =
  let triples = [ 0, 1, 1; 1, 3, 1; 0, 2, 2; 2, 3, 2; 0, 3, 5 ] in
  let gl = Graph.make ~n:4 triples in
  let ga = Graph.make_arr ~n:4 (Array.of_list triples) in
  check Alcotest.int "same m" (Graph.m gl) (Graph.m ga);
  Array.iteri
    (fun id (e : Graph.edge) ->
      let e' = Graph.edge ga id in
      Alcotest.(check bool) "same edge" true
        (e.u = e'.u && e.v = e'.v && e.w = e'.w && e.id = e'.id))
    (Graph.edges gl);
  Alcotest.check_raises "make_arr validates too"
    (Invalid_argument "Graph.make: duplicate edge") (fun () ->
      ignore (Graph.make_arr ~n:2 [| 0, 1, 1; 1, 0, 2 |]))

let test_csr_memo_reuse () =
  (* The CSR view is built once and memoized on the graph: every force
     returns the same physical value, including the one [find_edge] and
     [csr_pos] take, so hot loops can hoist [Graph.csr g] and index
     [Graph.pos] without re-deriving anything. *)
  let g = diamond () in
  let c1 = Graph.csr g in
  Alcotest.(check bool) "build-once: same physical CSR" true
    (c1 == Graph.csr g);
  ignore (Graph.find_edge g 0 1);
  Alcotest.(check bool) "find_edge reuses the memo" true (Graph.csr g == c1);
  Alcotest.(check bool) "pos on the memo = csr_pos on the graph" true
    (Graph.pos c1 ~src:0 ~dst:1 = Graph.csr_pos g ~src:0 ~dst:1)

let prop_csr_consistent =
  QCheck.Test.make ~name:"CSR invariants on random graphs" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:25 ~extra_edges:20 ~max_w:9 in
      csr_consistent g)

(* ----------------------------------------------------------------- Paths *)

let test_dijkstra_diamond () =
  let g = diamond () in
  let dist, _ = Paths.dijkstra g ~src:0 in
  check Alcotest.(array int) "distances" [| 0; 1; 2; 2 |] dist

let test_dijkstra_prefers_fewer_hops () =
  (* Two shortest paths of weight 2 from 0 to 2: direct (1 hop) and via 1
     (2 hops); the hop count must be 1. *)
  let g = Graph.make ~n:3 [ 0, 1, 1; 1, 2, 1; 0, 2, 2 ] in
  let _, _, hops = Paths.dijkstra_hops g ~src:0 in
  check Alcotest.int "min hops among shortest" 1 hops.(2)

let test_shortest_path () =
  let g = diamond () in
  match Paths.shortest_path g ~src:0 ~dst:3 with
  | Some (nodes, w) ->
      check Alcotest.(list int) "path" [ 0; 1; 3 ] nodes;
      check Alcotest.int "weight" 2 w;
      check Alcotest.int "edges" 2 (List.length (Paths.path_edges g nodes))
  | None -> Alcotest.fail "path should exist"

let test_bfs () =
  let g = Gen.path 5 in
  let dist, parent = Paths.bfs g ~src:0 in
  check Alcotest.(array int) "bfs dist" [| 0; 1; 2; 3; 4 |] dist;
  check Alcotest.int "parent of 4" 3 parent.(4)

let test_bfs_multi () =
  let g = Gen.path 5 in
  let dist = Paths.bfs_multi g ~srcs:[ 0; 4 ] in
  check Alcotest.(array int) "multi-source" [| 0; 1; 2; 1; 0 |] dist

let test_parameters_path () =
  let g = Gen.path 6 in
  let d, wd, s = Paths.parameters g in
  check Alcotest.int "D" 5 d;
  check Alcotest.int "WD" 5 wd;
  check Alcotest.int "s" 5 s

let test_parameters_weighted_cycle () =
  (* Cycle of 4 with one heavy edge: shortest paths avoid it. *)
  let g = Graph.make ~n:4 [ 0, 1, 1; 1, 2, 1; 2, 3, 1; 3, 0, 10 ] in
  let d, wd, s = Paths.parameters g in
  check Alcotest.int "D" 2 d;
  check Alcotest.int "WD" 3 wd;
  (* 0 to 3 must go 0-1-2-3: 3 hops. *)
  check Alcotest.int "s" 3 s

let test_s_vs_d_gap () =
  (* Lollipop-ish: s can exceed D in weighted graphs; here a heavy shortcut
     keeps D low while weighted shortest paths take the long way. *)
  let n = 10 in
  let edges =
    List.init (n - 1) (fun i -> i, i + 1, 1) @ [ 0, n - 1, 100 ]
  in
  let g = Graph.make ~n edges in
  let d, _, s = Paths.parameters g in
  check Alcotest.int "D small" 1 (Paths.bfs g ~src:0 |> fun (dist, _) -> dist.(n - 1));
  Alcotest.(check bool) "s > D" true (s > d)

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"dijkstra satisfies triangle inequality" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:20 ~extra_edges:20 ~max_w:10 in
      let apsp = Paths.all_pairs g in
      let ok = ref true in
      for u = 0 to 19 do
        for v = 0 to 19 do
          for w = 0 to 19 do
            if apsp.(u).(v) > apsp.(u).(w) + apsp.(w).(v) then ok := false
          done
        done
      done;
      !ok)

let prop_dijkstra_edge_bound =
  QCheck.Test.make ~name:"dijkstra distances respect every edge" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:25 ~extra_edges:15 ~max_w:9 in
      let dist, _ = Paths.dijkstra g ~src:0 in
      Array.for_all
        (fun (e : Graph.edge) ->
          dist.(e.u) <= dist.(e.v) + e.w && dist.(e.v) <= dist.(e.u) + e.w)
        (Graph.edges g))

(* The original polymorphic implementation, kept verbatim as the oracle for
   the monomorphic kernel: boxed (d, h, v, par) entries on Dsf_util.Heap,
   parent written when an entry settles. *)
let oracle_dijkstra_hops g ~src =
  let module Heap = Dsf_util.Heap in
  let inf = max_int in
  let n = Graph.n g in
  let dist = Array.make n inf in
  let hops = Array.make n inf in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let cmp (d1, h1, _, _) (d2, h2, _, _) = compare (d1, h1) (d2, h2) in
  let heap = Heap.create ~cmp in
  dist.(src) <- 0;
  hops.(src) <- 0;
  Heap.push heap (0, 0, src, -1);
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, h, v, par) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          dist.(v) <- d;
          hops.(v) <- h;
          parent.(v) <- par;
          Array.iter
            (fun (nb, w, _) ->
              if not settled.(nb) then begin
                let nd = d + w and nh = h + 1 in
                if (nd, nh) < (dist.(nb), hops.(nb)) then begin
                  dist.(nb) <- nd;
                  hops.(nb) <- nh;
                  Heap.push heap (nd, nh, nb, v)
                end
              end)
            (Graph.adj g v)
        end;
        loop ()
  in
  loop ();
  dist, parent, hops

let agrees_with_oracle g =
  let ok = ref true in
  for src = 0 to Graph.n g - 1 do
    let dist, parent, hops = Paths.dijkstra_hops g ~src in
    let odist, oparent, ohops = oracle_dijkstra_hops g ~src in
    if dist <> odist || parent <> oparent || hops <> ohops then ok := false
  done;
  !ok

let prop_kernel_matches_oracle =
  QCheck.Test.make
    ~name:"dijkstra_hops = seed oracle (dist, hops, parent), tie-heavy"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 1 3))
    (fun (seed, max_w) ->
      let r = rng seed in
      let n = 2 + Dsf_util.Rng.int r 40 in
      let g =
        Gen.random_connected r ~n ~extra_edges:(Dsf_util.Rng.int r (2 * n))
          ~max_w
      in
      agrees_with_oracle g)

let test_kernel_oracle_shapes () =
  let r = rng 17 in
  List.iter
    (fun (name, g) -> check Alcotest.bool name true (agrees_with_oracle g))
    [
      "unit path", Gen.path 30;
      "weighted path", Gen.reweight r ~max_w:3 (Gen.path 40);
      "unit grid", Gen.grid ~rows:6 ~cols:7;
      "weighted grid", Gen.reweight r ~max_w:2 (Gen.grid ~rows:7 ~cols:5);
      "complete", Gen.reweight r ~max_w:2 (Gen.complete 9);
    ]

let test_kernel_oracle_disconnected () =
  (* Two triangles and an isolated node: unreachable nodes keep the
     max_int distance/hops and the -1 parent markers. *)
  let g =
    Graph.make ~n:7
      [ 0, 1, 1; 1, 2, 1; 0, 2, 2; 3, 4, 2; 4, 5, 1; 3, 5, 3 ]
  in
  check Alcotest.bool "oracle agrees" true (agrees_with_oracle g);
  let dist, parent, hops = Paths.dijkstra_hops g ~src:0 in
  check Alcotest.int "dist unreachable" max_int dist.(4);
  check Alcotest.int "hops unreachable" max_int hops.(6);
  check Alcotest.int "parent unreachable" (-1) parent.(5);
  Alcotest.check_raises "parameters rejects"
    (Invalid_argument "Paths: disconnected graph") (fun () ->
      ignore (Paths.parameters g))

let test_parameters_projections () =
  let g = Gen.random_connected (rng 5) ~n:30 ~extra_edges:30 ~max_w:7 in
  let p1 = Paths.parameters g in
  check Alcotest.(triple int int int) "a second sweep, the same triple" p1
    (Paths.parameters g);
  let d, wd, s = p1 in
  check Alcotest.int "diameter_unweighted" d (Paths.diameter_unweighted g);
  check Alcotest.int "diameter_weighted" wd (Paths.diameter_weighted g);
  check Alcotest.int "shortest_path_diameter" s
    (Paths.shortest_path_diameter g);
  (* A fresh graph with the same edges: equal values. *)
  let copy =
    Graph.make ~n:(Graph.n g)
      (Array.to_list (Graph.edges g)
      |> List.map (fun (e : Graph.edge) -> e.u, e.v, e.w))
  in
  check Alcotest.bool "fresh graph, same triple" true
    (Paths.parameters copy = p1)

(* The sweep oracle: (D, WD, s) as the max over sources of the public
   single-source queries.  Paths.parameters picks its kernel by the
   largest weight (bucket queue below 32, heap from 32 up), so the weight
   bounds straddle that threshold and stay small enough for many ties. *)
let oracle_parameters g =
  let d = ref 0 and wd = ref 0 and s = ref 0 in
  for src = 0 to Graph.n g - 1 do
    let bd, _ = Paths.bfs g ~src in
    let dist, _, hops = Paths.dijkstra_hops g ~src in
    Array.iter (fun x -> d := max !d x) bd;
    Array.iter (fun x -> wd := max !wd x) dist;
    Array.iter (fun x -> s := max !s x) hops
  done;
  !d, !wd, !s

let sweep_weight_bounds = [| 1; 2; 3; 16; 31; 32; 500 |]

(* Random, path, grid, cycle and lollipop graphs, for [n] up to 41. *)
let sweep_shapes =
  [
    (fun r ~n ~max_w ->
      Gen.random_connected r ~n ~extra_edges:(Dsf_util.Rng.int r (2 * n))
        ~max_w);
    (fun r ~n ~max_w -> Gen.reweight r ~max_w (Gen.path n));
    (fun r ~n:_ ~max_w ->
      Gen.reweight r ~max_w
        (Gen.grid ~rows:(1 + Dsf_util.Rng.int r 7)
           ~cols:(2 + Dsf_util.Rng.int r 6)));
    (fun r ~n ~max_w -> Gen.reweight r ~max_w (Gen.cycle (max 3 n)));
    (fun r ~n ~max_w ->
      Gen.reweight r ~max_w
        (Gen.lollipop ~clique:(2 + (n / 3)) ~tail:(n / 2)));
  ]

let prop_parameters_match_oracle =
  QCheck.Test.make
    ~name:"parameters = max over sources of bfs and dijkstra_hops, tie-heavy"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      (* Every shape on both sides of the kernel threshold, every time. *)
      let r = rng seed in
      Array.for_all
        (fun max_w ->
          List.for_all
            (fun shape ->
              let g = shape r ~n:(2 + Dsf_util.Rng.int r 40) ~max_w in
              Paths.parameters g = oracle_parameters g)
            sweep_shapes)
        sweep_weight_bounds)

let test_parameters_single_node () =
  let g = Graph.make ~n:1 [] in
  check Alcotest.(triple int int int) "n = 1" (0, 0, 0) (Paths.parameters g)

let test_parameters_disconnected () =
  (* Both kernels: a disconnected graph raises on every call. *)
  List.iter
    (fun w ->
      let g = Graph.make ~n:5 [ 0, 1, w; 1, 2, 1; 3, 4, 2 ] in
      for _ = 1 to 2 do
        Alcotest.check_raises
          (Printf.sprintf "max weight %d" w)
          (Invalid_argument "Paths: disconnected graph") (fun () ->
            ignore (Paths.parameters g))
      done)
    [ 1; 31; 32; 500 ]

let test_scaled_weighted_diameter () =
  (* Scaling every weight by k scales every distance by k: the identity
     Det_sublinear uses instead of sweeping its scaled graph. *)
  List.iter
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:25 ~extra_edges:25 ~max_w:9 in
      List.iter
        (fun k ->
          let scaled =
            Graph.make ~n:(Graph.n g)
              (Array.to_list (Graph.edges g)
              |> List.map (fun (e : Graph.edge) -> e.u, e.v, k * e.w))
          in
          check Alcotest.int
            (Printf.sprintf "seed %d, x%d" seed k)
            (k * Paths.diameter_weighted g)
            (Paths.diameter_weighted scaled))
        [ 1; 2; 17 ])
    [ 1; 2; 3 ]

(* The blocked sweep: sources go 62 to a word, so the sizes straddle one
   and two block boundaries, and [~jobs:2] splits every sweep with two or
   more blocks.  Every call rebuilds the graph, so each sweep also builds
   its own CSR view. *)
let rebuild g =
  Graph.make_arr ~n:(Graph.n g)
    (Array.map (fun (e : Graph.edge) -> e.u, e.v, e.w) (Graph.edges g))

let block_sizes = [ 1; 2; 61; 62; 63; 124; 125; 130 ]

(* Unit-weight shapes on exactly [n] nodes.  A grid takes the largest
   divisor of [n] up to its square root as its row count. *)
let block_shapes =
  let rows n =
    let best = ref 1 in
    for d = 1 to n do
      if d * d <= n && n mod d = 0 then best := d
    done;
    !best
  in
  [
    (fun r n ->
      if n < 2 then Gen.path n
      else
        Gen.random_connected r ~n ~extra_edges:(Dsf_util.Rng.int r (2 * n))
          ~max_w:1);
    (fun _ n -> Gen.path n);
    (* A path whose two ends carry the two highest ids, so D is seen
       only from sources in the last block. *)
    (fun _ n ->
      if n < 3 then Gen.path n
      else
        let order =
          Array.concat [ [| n - 2 |]; Array.init (n - 2) Fun.id; [| n - 1 |] ]
        in
        Graph.unweighted_arr ~n
          (Array.init (n - 1) (fun i -> order.(i), order.(i + 1))));
    (fun _ n -> Gen.grid ~rows:(rows n) ~cols:(n / rows n));
    (fun _ n -> if n < 2 then Gen.path n else Gen.star n);
    (fun _ n -> Gen.complete n);
  ]

(* Tie-heavy weights: all 1, then {1, 2}, then {32, 33}, which sweeps on
   the heap kernel. *)
let block_weights =
  [
    (fun _ g -> g);
    (fun r g -> Gen.reweight r ~max_w:2 g);
    (fun r g ->
      let g = Gen.reweight r ~max_w:2 g in
      Graph.make_arr ~n:(Graph.n g)
        (Array.map (fun (e : Graph.edge) -> e.u, e.v, e.w + 31) (Graph.edges g)));
  ]

let prop_blocked_sweep_jobs =
  QCheck.Test.make
    ~name:"parameters ~jobs:1 = ~jobs:2 = oracle across block boundaries"
    ~count:2
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      List.for_all
        (fun n ->
          List.for_all
            (fun shape ->
              List.for_all
                (fun weigh ->
                  let g = weigh r (shape r n) in
                  let want = oracle_parameters g in
                  Paths.parameters ~jobs:1 (rebuild g) = want
                  && Paths.parameters ~jobs:2 (rebuild g) = want)
                block_weights)
            block_shapes)
        block_sizes)

(* Two components of [n1] and [n2] nodes, the second a path (deep) or a
   random graph (shallow). *)
let test_blocked_sweep_disconnected () =
  let r = rng 3 in
  List.iter
    (fun (n1, n2, w) ->
      let a = Gen.random_connected r ~n:n1 ~extra_edges:n1 ~max_w:w in
      let b =
        if n2 mod 2 = 0 then Gen.reweight r ~max_w:w (Gen.path n2)
        else Gen.random_connected r ~n:n2 ~extra_edges:n2 ~max_w:w
      in
      let shift off h =
        Array.map (fun (e : Graph.edge) -> e.u + off, e.v + off, e.w) (Graph.edges h)
      in
      let g =
        Graph.make_arr ~n:(n1 + n2) (Array.append (shift 0 a) (shift n1 b))
      in
      List.iter
        (fun jobs ->
          Alcotest.check_raises
            (Printf.sprintf "n=%d+%d, max weight %d, jobs %d" n1 n2 w jobs)
            (Invalid_argument "Paths: disconnected graph") (fun () ->
              ignore (Paths.parameters ~jobs g)))
        [ 1; 2 ])
    [ 60, 2, 1; 62, 63, 2; 100, 30, 16; 70, 61, 40; 2, 128, 1 ]

(* A sweep is one Pool region: back-to-back sweeps at jobs 2 each get
   fresh helper domains, and a sweep at jobs 2 inside a Pool task is a
   nested region. *)
let test_blocked_sweep_pool () =
  let g = Gen.random_connected (rng 9) ~n:200 ~extra_edges:200 ~max_w:5 in
  let want = oracle_parameters g in
  for i = 1 to 2 do
    check Alcotest.(triple int int int)
      (Printf.sprintf "region %d" i) want
      (Paths.parameters ~jobs:2 (rebuild g))
  done;
  check Alcotest.(array int) "plain region after two sweeps" [| 1; 4; 9 |]
    (Dsf_util.Pool.map_chunked ~jobs:2 (fun i -> i * i) [| 1; 2; 3 |]);
  match
    Dsf_util.Pool.map_chunked ~jobs:2
      (fun g -> Paths.parameters ~jobs:2 g)
      [| rebuild g; rebuild g |]
  with
  | _ -> Alcotest.fail "expected Nested_use"
  | exception Dsf_util.Pool.Nested_use ->
      check Alcotest.(array (triple int int int)) "nested sweeps at jobs 1"
        [| want; want |]
        (Dsf_util.Pool.map_chunked ~jobs:2
           (fun g -> Paths.parameters ~jobs:1 g)
           [| rebuild g; rebuild g |])

(* ------------------------------------------------------------------- Gen *)

let test_gen_shapes () =
  check Alcotest.int "path edges" 4 (Graph.m (Gen.path 5));
  check Alcotest.int "cycle edges" 5 (Graph.m (Gen.cycle 5));
  check Alcotest.int "star edges" 5 (Graph.m (Gen.star 6));
  check Alcotest.int "complete edges" 10 (Graph.m (Gen.complete 5));
  check Alcotest.int "grid edges" 12 (Graph.m (Gen.grid ~rows:3 ~cols:3));
  check Alcotest.int "tree edges" 9 (Graph.m (Gen.binary_tree 10));
  Alcotest.(check bool) "tree connected" true (Graph.is_connected (Gen.binary_tree 10))

let test_gen_lollipop () =
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  check Alcotest.int "n" 7 (Graph.n g);
  check Alcotest.int "m" 9 (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_random_connected () =
  let g = Gen.random_connected (rng 5) ~n:50 ~extra_edges:30 ~max_w:20 in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  check Alcotest.int "n" 50 (Graph.n g);
  Alcotest.(check bool) "enough edges" true (Graph.m g >= 49);
  Alcotest.(check bool) "weights in range" true
    (Array.for_all
       (fun (e : Graph.edge) -> e.w >= 1 && e.w <= 20)
       (Graph.edges g))

let test_gen_geometric () =
  let g = Gen.random_geometric (rng 11) ~n:40 ~radius:0.25 ~max_w:100 in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  check Alcotest.int "n" 40 (Graph.n g)

let test_gen_labels () =
  let labels = Gen.random_labels (rng 2) ~n:30 ~t:10 ~k:3 in
  let counts = Array.make 3 0 in
  let terminals = ref 0 in
  Array.iter
    (fun l ->
      if l >= 0 then begin
        incr terminals;
        counts.(l) <- counts.(l) + 1
      end)
    labels;
  check Alcotest.int "t terminals" 10 !terminals;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "component %d has >= 2" i) true (c >= 2))
    counts

let test_gen_spread_labels () =
  let g = Gen.grid ~rows:6 ~cols:6 in
  let labels = Gen.spread_labels (rng 9) g ~t:12 ~k:4 in
  let counts = Array.make 4 0 in
  Array.iter (fun l -> if l >= 0 then counts.(l) <- counts.(l) + 1) labels;
  Array.iter
    (fun c -> Alcotest.(check bool) "each component >= 2" true (c >= 2))
    counts

(* -------------------------------------------------------------- Instance *)

let instance_of_labels g labels = Instance.make_ic g (Array.of_list labels)

let test_instance_counts () =
  let g = Gen.path 6 in
  let inst = instance_of_labels g [ 0; -1; 0; 1; -1; 1 ] in
  check Alcotest.int "t" 4 (Instance.terminal_count inst);
  check Alcotest.int "k" 2 (Instance.component_count inst);
  check Alcotest.int "k0" 2 (Instance.nontrivial_component_count inst)

let test_instance_minimalize () =
  let g = Gen.path 4 in
  let inst = instance_of_labels g [ 0; 1; -1; 0 ] in
  check Alcotest.int "k before" 2 (Instance.component_count inst);
  let m = Instance.minimalize inst in
  check Alcotest.int "k after" 1 (Instance.component_count m);
  check Alcotest.int "k0 unchanged" 1 (Instance.nontrivial_component_count m)

let test_instance_feasible () =
  let g = Gen.path 4 in
  let inst = instance_of_labels g [ 0; -1; -1; 0 ] in
  let f = Array.make (Graph.m g) true in
  Alcotest.(check bool) "full set feasible" true (Instance.is_feasible inst f);
  let f2 = Array.make (Graph.m g) false in
  Alcotest.(check bool) "empty infeasible" false (Instance.is_feasible inst f2)

let test_instance_cr_to_ic () =
  let g = Gen.path 5 in
  let requests = Array.make 5 [] in
  requests.(0) <- [ 2 ];
  requests.(2) <- [ 4 ];
  let cr = Instance.make_cr g requests in
  let inst = Instance.ic_of_cr cr in
  (* transitivity: 0, 2, 4 all in one input component *)
  check Alcotest.int "k" 1 (Instance.component_count inst);
  check Alcotest.int "t" 3 (Instance.terminal_count inst);
  Alcotest.(check bool) "same label" true
    (inst.Instance.labels.(0) = inst.Instance.labels.(4))

let test_cr_feasibility () =
  let g = Gen.path 5 in
  let requests = Array.make 5 [] in
  requests.(0) <- [ 4 ];
  let cr = Instance.make_cr g requests in
  let f = Array.make (Graph.m g) true in
  Alcotest.(check bool) "feasible" true (Instance.cr_is_feasible cr f);
  f.(2) <- false;
  Alcotest.(check bool) "broken path" false (Instance.cr_is_feasible cr f)

let test_prune_removes_dangling () =
  (* Path 0-1-2-3-4, terminals {0, 2} same label; the full path is a
     feasible forest but edges 2-3, 3-4 are useless. *)
  let g = Gen.path 5 in
  let inst = instance_of_labels g [ 0; -1; 0; -1; -1 ] in
  let f = Array.make (Graph.m g) true in
  let pruned = Instance.prune inst f in
  check Alcotest.int "pruned weight" 2 (Instance.solution_weight inst pruned);
  Alcotest.(check bool) "still feasible" true (Instance.is_feasible inst pruned)

let test_prune_keeps_steiner_node () =
  (* Star with hub 0: terminals at three leaves, one label.  All three
     spokes needed. *)
  let g = Gen.star 5 in
  let inst = instance_of_labels g [ -1; 0; 0; 0; -1 ] in
  let f = Array.make (Graph.m g) false in
  List.iter (fun (u, v) ->
      match Graph.find_edge g u v with
      | Some id -> f.(id) <- true
      | None -> assert false)
    [ 0, 1; 0, 2; 0, 3; 0, 4 ];
  let pruned = Instance.prune inst f in
  check Alcotest.int "keeps 3 spokes" 3 (Instance.solution_weight inst pruned);
  Alcotest.(check bool) "feasible" true (Instance.is_feasible inst pruned)

let test_prune_two_components () =
  (* Two separate labels on a path; pruning keeps both segments. *)
  let g = Gen.path 6 in
  let inst = instance_of_labels g [ 0; 0; -1; -1; 1; 1 ] in
  let f = Array.make (Graph.m g) true in
  let pruned = Instance.prune inst f in
  check Alcotest.int "weight" 2 (Instance.solution_weight inst pruned)

let prop_prune_minimal_and_feasible =
  QCheck.Test.make
    ~name:"prune yields feasible subforest; every edge necessary" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:15 ~extra_edges:10 ~max_w:5 in
      let labels = Gen.random_labels r ~n:15 ~t:6 ~k:2 in
      let inst = Instance.make_ic g labels in
      (* Start from a spanning tree (always a feasible forest). *)
      let f = Mst.kruskal g in
      let pruned = Instance.prune inst f in
      if not (Instance.is_feasible inst pruned) then false
      else begin
        (* Removing any kept edge must break feasibility. *)
        let ok = ref true in
        Array.iteri
          (fun id kept ->
            if kept then begin
              let f' = Array.copy pruned in
              f'.(id) <- false;
              if Instance.is_feasible inst f' then ok := false
            end)
          pruned;
        !ok
      end)

(* ------------------------------------------------------------------- Mst *)

let test_kruskal_diamond () =
  let g = diamond () in
  let f = Mst.kruskal g in
  check Alcotest.int "mst weight" 4 (Graph.edge_set_weight g f);
  Alcotest.(check bool) "spanning tree" true (Mst.is_spanning_tree g f)

let test_kruskal_path () =
  let g = Gen.path 7 in
  check Alcotest.int "path mst weight" 6 (Mst.weight g)

let prop_kruskal_spanning =
  QCheck.Test.make ~name:"kruskal yields a spanning tree" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:30 ~extra_edges:40 ~max_w:50 in
      Mst.is_spanning_tree g (Mst.kruskal g))

let prop_kruskal_cut_property =
  QCheck.Test.make
    ~name:"no single-edge swap improves kruskal weight" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Gen.random_connected (rng seed) ~n:12 ~extra_edges:12 ~max_w:30 in
      let f = Mst.kruskal g in
      let base = Graph.edge_set_weight g f in
      (* For every non-tree edge e and tree edge x on the induced cycle,
         swapping cannot beat base.  Cheap version: adding e and removing any
         tree edge never improves. *)
      let ok = ref true in
      Array.iter
        (fun (e : Graph.edge) ->
          if not f.(e.id) then
            Array.iter
              (fun (x : Graph.edge) ->
                if f.(x.id) then begin
                  let f' = Array.copy f in
                  f'.(e.id) <- true;
                  f'.(x.id) <- false;
                  if
                    Mst.is_spanning_tree g f'
                    && Graph.edge_set_weight g f' < base
                  then ok := false
                end)
              (Graph.edges g))
        (Graph.edges g);
      !ok)

(* ----------------------------------------------------------------- Exact *)

let test_partitions_bell () =
  check Alcotest.int "bell 1" 1 (List.length (Exact.partitions [ 1 ]));
  check Alcotest.int "bell 2" 2 (List.length (Exact.partitions [ 1; 2 ]));
  check Alcotest.int "bell 3" 5 (List.length (Exact.partitions [ 1; 2; 3 ]));
  check Alcotest.int "bell 4" 15 (List.length (Exact.partitions [ 1; 2; 3; 4 ]))

let test_steiner_tree_two_terminals () =
  let g = diamond () in
  check Alcotest.int "st = shortest path" 2 (Exact.steiner_tree_weight g [ 0; 3 ])

let test_steiner_tree_star () =
  (* Star hub 0 with unit spokes; terminals three leaves: weight 3 via hub. *)
  let g = Gen.star 5 in
  check Alcotest.int "hub tree" 3 (Exact.steiner_tree_weight g [ 1; 2; 3 ])

let test_steiner_tree_single () =
  let g = diamond () in
  check Alcotest.int "single terminal" 0 (Exact.steiner_tree_weight g [ 2 ]);
  check Alcotest.int "no terminal" 0 (Exact.steiner_tree_weight g [])

let test_steiner_forest_separate_cheaper () =
  (* Two far-apart pairs: forest with two trees beats one spanning tree.
     Path 0-1-2-3 with heavy middle edge; labels {0,1} and {2,3}. *)
  let g = Graph.make ~n:4 [ 0, 1, 1; 1, 2, 100; 2, 3, 1 ] in
  let inst = Instance.make_ic g [| 0; 0; 1; 1 |] in
  check Alcotest.int "two trees" 2 (Exact.steiner_forest_weight inst)

let test_steiner_forest_sharing_cheaper () =
  (* Sharing a Steiner node is cheaper than separate trees.
     Spider: hub 0, legs to 1,2,3,4 of weight 1; labels {1,2} and {3,4}.
     Separate trees: (1-0-2) = 2 and (3-0-4) = 2 -> total 4 but they share
     hub edges?  They are disjoint trees needing edges 01,02 and 03,04:
     total 4.  Optimal = 4. Sanity-check the partition enumeration agrees. *)
  let g = Gen.star 5 in
  let inst = Instance.make_ic g [| -1; 0; 0; 1; 1 |] in
  check Alcotest.int "forest weight" 4 (Exact.steiner_forest_weight inst)

let test_steiner_forest_vs_mst_k1 () =
  (* k=1 with all nodes terminals = spanning tree: exact forest = MST. *)
  let g = Gen.random_connected (rng 77) ~n:8 ~extra_edges:8 ~max_w:10 in
  let inst = Instance.make_ic g (Array.make 8 0) in
  check Alcotest.int "equals MST" (Mst.weight g) (Exact.steiner_forest_weight inst)

let prop_exact_st_between_bounds =
  QCheck.Test.make
    ~name:"steiner tree weight between max pair distance and MST" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      let g = Gen.random_connected r ~n:12 ~extra_edges:10 ~max_w:10 in
      let terms =
        Dsf_util.Rng.sample_without_replacement r 4 12 |> Array.to_list
      in
      let w = Exact.steiner_tree_weight g terms in
      let apsp = Paths.all_pairs g in
      let max_pair =
        List.fold_left
          (fun acc u ->
            List.fold_left (fun acc v -> max acc apsp.(u).(v)) acc terms)
          0 terms
      in
      w >= max_pair && w <= Mst.weight g)

let suites =
  [
    ( "graph.graph",
      [
        Alcotest.test_case "basic accessors" `Quick test_graph_basic;
        Alcotest.test_case "validation" `Quick test_graph_validation;
        Alcotest.test_case "edge lookup" `Quick test_graph_edges;
        Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
        Alcotest.test_case "edge set weight" `Quick test_edge_set_weight;
        Alcotest.test_case "csr diamond" `Quick test_csr_diamond;
        Alcotest.test_case "make_arr equivalence" `Quick test_make_arr_equiv;
        Alcotest.test_case "csr memo reuse" `Quick test_csr_memo_reuse;
        qtest prop_csr_consistent;
      ] );
    ( "graph.paths",
      [
        Alcotest.test_case "dijkstra diamond" `Quick test_dijkstra_diamond;
        Alcotest.test_case "fewest hops tie-break" `Quick test_dijkstra_prefers_fewer_hops;
        Alcotest.test_case "shortest path extraction" `Quick test_shortest_path;
        Alcotest.test_case "bfs" `Quick test_bfs;
        Alcotest.test_case "bfs multi-source" `Quick test_bfs_multi;
        Alcotest.test_case "parameters of a path" `Quick test_parameters_path;
        Alcotest.test_case "parameters weighted cycle" `Quick test_parameters_weighted_cycle;
        Alcotest.test_case "s exceeds D" `Quick test_s_vs_d_gap;
        qtest prop_dijkstra_triangle;
        qtest prop_dijkstra_edge_bound;
        qtest prop_kernel_matches_oracle;
        Alcotest.test_case "kernel = oracle on paths and grids" `Quick
          test_kernel_oracle_shapes;
        Alcotest.test_case "kernel = oracle, disconnected" `Quick
          test_kernel_oracle_disconnected;
        Alcotest.test_case "parameters and projections" `Quick
          test_parameters_projections;
        qtest prop_parameters_match_oracle;
        Alcotest.test_case "parameters of a single node" `Quick
          test_parameters_single_node;
        Alcotest.test_case "parameters of a disconnected graph" `Quick
          test_parameters_disconnected;
        Alcotest.test_case "scaled weighted diameter" `Quick
          test_scaled_weighted_diameter;
        qtest prop_blocked_sweep_jobs;
        Alcotest.test_case "blocked sweep, disconnected" `Quick
          test_blocked_sweep_disconnected;
        Alcotest.test_case "blocked sweep, pool regions" `Quick
          test_blocked_sweep_pool;
      ] );
    ( "graph.gen",
      [
        Alcotest.test_case "fixed shapes" `Quick test_gen_shapes;
        Alcotest.test_case "lollipop" `Quick test_gen_lollipop;
        Alcotest.test_case "random connected" `Quick test_gen_random_connected;
        Alcotest.test_case "random geometric" `Quick test_gen_geometric;
        Alcotest.test_case "random labels" `Quick test_gen_labels;
        Alcotest.test_case "spread labels" `Quick test_gen_spread_labels;
      ] );
    ( "graph.instance",
      [
        Alcotest.test_case "t/k/k0 counts" `Quick test_instance_counts;
        Alcotest.test_case "minimalize" `Quick test_instance_minimalize;
        Alcotest.test_case "feasibility" `Quick test_instance_feasible;
        Alcotest.test_case "CR to IC (Lemma 2.3)" `Quick test_instance_cr_to_ic;
        Alcotest.test_case "CR feasibility" `Quick test_cr_feasibility;
        Alcotest.test_case "prune dangling path" `Quick test_prune_removes_dangling;
        Alcotest.test_case "prune keeps steiner node" `Quick test_prune_keeps_steiner_node;
        Alcotest.test_case "prune two components" `Quick test_prune_two_components;
        qtest prop_prune_minimal_and_feasible;
      ] );
    ( "graph.mst",
      [
        Alcotest.test_case "kruskal diamond" `Quick test_kruskal_diamond;
        Alcotest.test_case "kruskal path" `Quick test_kruskal_path;
        qtest prop_kruskal_spanning;
        qtest prop_kruskal_cut_property;
      ] );
    ( "graph.exact",
      [
        Alcotest.test_case "bell numbers" `Quick test_partitions_bell;
        Alcotest.test_case "ST two terminals" `Quick test_steiner_tree_two_terminals;
        Alcotest.test_case "ST star" `Quick test_steiner_tree_star;
        Alcotest.test_case "ST degenerate" `Quick test_steiner_tree_single;
        Alcotest.test_case "SF separate trees" `Quick test_steiner_forest_separate_cheaper;
        Alcotest.test_case "SF spider" `Quick test_steiner_forest_sharing_cheaper;
        Alcotest.test_case "SF k=1 all-terminals = MST" `Quick test_steiner_forest_vs_mst_k1;
        qtest prop_exact_st_between_bounds;
      ] );
  ]
