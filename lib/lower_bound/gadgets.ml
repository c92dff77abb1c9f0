module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance

type side = Alice | Bob

type cr_gadget = {
  cr : Instance.cr;
  cr_side : side array;
  heavy_edges : int list;
  cr_universe : int;
}

type ic_gadget = {
  ic : Instance.ic;
  ic_side : side array;
  bridge_edge : int;
  ic_universe : int;
}

(* Node numbering for the CR gadget: a_{-1} = 0, a_0 = 1, a_i = 1 + i
   (i = 1..N); b_{-1} = N + 2, b_0 = N + 3, b_i = N + 3 + i. *)
let cr_gadget ~universe ~rho ~a ~b =
  assert (Array.length a = universe && Array.length b = universe);
  let n = (2 * universe) + 4 in
  let a_minus = 0 and a_0 = 1 in
  let a_i i = 1 + i in
  let b_minus = universe + 2 and b_0 = universe + 3 in
  let b_i i = universe + 3 + i in
  let heavy_w = (rho * ((2 * universe) + 2)) + 1 in
  let edges = ref [] in
  for i = 1 to universe do
    edges := (a_i i, (if a.(i - 1) then a_0 else a_minus), 1) :: !edges;
    edges := (b_i i, (if b.(i - 1) then b_0 else b_minus), 1) :: !edges
  done;
  (* Cross edges: light crossing pair, heavy parallel pair. *)
  edges :=
    (a_0, b_minus, 1) :: (a_minus, b_0, 1)
    :: (a_0, b_0, heavy_w) :: (a_minus, b_minus, heavy_w)
    :: !edges;
  let g = Graph.make ~n (List.rev !edges) in
  let heavy_edges =
    [ Graph.find_edge g a_0 b_0; Graph.find_edge g a_minus b_minus ]
    |> List.filter_map Fun.id
  in
  let requests = Array.make n [] in
  for i = 1 to universe do
    if a.(i - 1) then requests.(a_i i) <- [ b_i i ];
    if b.(i - 1) then requests.(b_i i) <- [ a_i i ]
  done;
  let cr = Instance.make_cr g requests in
  let cr_side =
    Array.init n (fun v -> if v <= universe + 1 then Alice else Bob)
  in
  { cr; cr_side; heavy_edges; cr_universe = universe }

(* IC gadget: a_0 = 0, a_i = i (i = 1..N); b_0 = N + 1, b_i = N + 1 + i. *)
let ic_gadget ~universe ~a ~b =
  assert (Array.length a = universe && Array.length b = universe);
  let n = (2 * universe) + 2 in
  let a_0 = 0 and b_0 = universe + 1 in
  let a_i i = i and b_i i = universe + 1 + i in
  let edges = ref [ a_0, b_0, 1 ] in
  for i = 1 to universe do
    edges := (a_0, a_i i, 1) :: !edges;
    edges := (b_0, b_i i, 1) :: !edges
  done;
  let g = Graph.make ~n (List.rev !edges) in
  let labels = Array.make n (-1) in
  for i = 1 to universe do
    if a.(i - 1) then labels.(a_i i) <- i;
    if b.(i - 1) then labels.(b_i i) <- i
  done;
  let ic = Instance.make_ic g labels in
  let bridge_edge =
    match Graph.find_edge g a_0 b_0 with Some id -> id | None -> assert false
  in
  let ic_side = Array.init n (fun v -> if v <= universe then Alice else Bob) in
  { ic; ic_side; bridge_edge; ic_universe = universe }

let disjoint a b =
  let inter = ref false in
  Array.iteri (fun i x -> if x && b.(i) then inter := true) a;
  not !inter

let cr_answer_consistent gadget solution =
  let uses_heavy = List.exists (fun id -> solution.(id)) gadget.heavy_edges in
  let u = gadget.cr_universe in
  (* Element j (0-based) lives at nodes a_{j+1} = j + 2 and
     b_{j+1} = u + 3 + (j + 1). *)
  let req_a =
    Array.init u (fun j -> gadget.cr.Instance.requests.(j + 2) <> [])
  in
  let req_b =
    Array.init u (fun j -> gadget.cr.Instance.requests.(u + 4 + j) <> [])
  in
  let disj = disjoint req_a req_b in
  (* Disjoint -> the cheap solution avoids heavy edges; intersecting ->
     feasibility forces a heavy edge. *)
  uses_heavy = not disj

let ic_answer_consistent gadget solution =
  (* Reconstruct A and B from the labels. *)
  let u = gadget.ic_universe in
  let a = Array.init u (fun i -> gadget.ic.Instance.labels.(i + 1) >= 0) in
  let b =
    Array.init u (fun i -> gadget.ic.Instance.labels.(u + 1 + i + 1) >= 0)
  in
  solution.(gadget.bridge_edge) = not (disjoint a b)

let cut_bits sides f =
  let module Recorder = Dsf_congest.Recorder in
  let r = Recorder.create ~now:0 () in
  let result = f ~telemetry:(Dsf_congest.Telemetry.create ~recorder:r ()) in
  let log = Recorder.to_log r in
  ( result,
    List.fold_left
      (fun total -> function
        | Recorder.Send { src; dst; bits; _ } when sides.(src) <> sides.(dst) ->
            total + bits
        | _ -> total)
      0 (Recorder.log_events log) )

type padding = {
  extra_nodes : int;
  extra_diameter : int;
  extra_components : int;
}

let no_padding = { extra_nodes = 0; extra_diameter = 0; extra_components = 0 }

let cr_gadget_padded ~universe ~rho ~a ~b ~padding =
  let base = cr_gadget ~universe ~rho ~a ~b in
  let g0 = base.cr.Instance.cr_graph in
  let n0 = Graph.n g0 in
  let chain = padding.extra_nodes + padding.extra_diameter in
  let pairs = padding.extra_components in
  let n = n0 + chain + (2 * pairs) in
  let edges =
    Array.to_list (Graph.edges g0)
    |> List.map (fun (e : Graph.edge) -> e.u, e.v, e.w)
  in
  (* Chain off a_1 (node 2 in the base numbering): raises n and D without
     touching the Alice/Bob cut. *)
  let a1 = 2 in
  let edges = ref edges in
  let prev = ref a1 in
  for i = 0 to chain - 1 do
    edges := (!prev, n0 + i, 1) :: !edges;
    prev := n0 + i
  done;
  (* Locally satisfiable request pairs (c_i, c_i'): raise k.  The paper's
     remark leaves them isolated; we tether each pair to a_1 (still on
     Alice's side, off the cut) because the simulator requires a connected
     network.  The direct unit edge keeps each pair's request trivially
     satisfied there. *)
  for i = 0 to pairs - 1 do
    let c = n0 + chain + (2 * i) in
    edges := (c, c + 1, 1) :: (a1, c, 1) :: !edges
  done;
  let g = Graph.make ~n (List.rev !edges) in
  let requests = Array.make n [] in
  Array.iteri (fun v rs -> requests.(v) <- rs) base.cr.Instance.requests;
  for i = 0 to pairs - 1 do
    let c = n0 + chain + (2 * i) in
    requests.(c) <- [ c + 1 ]
  done;
  let heavy_edges =
    List.filter_map
      (fun id ->
        let u, v = Graph.endpoints g0 id in
        Graph.find_edge g u v)
      base.heavy_edges
  in
  let cr_side =
    Array.init n (fun v ->
        if v < n0 then base.cr_side.(v)
        else Alice (* all padding hangs off Alice's side *))
  in
  { cr = Instance.make_cr g requests; cr_side; heavy_edges; cr_universe = universe }

let st_hard ~s ~rho =
  assert (s >= 2 && rho >= 1);
  (* Path 0..s (unit edges); hub = s + 1 linked to every path node. *)
  let n = s + 2 in
  let hub = s + 1 in
  let heavy = (rho * s) + 1 in
  let edges =
    List.init s (fun i -> i, i + 1, 1)
    @ List.init (s + 1) (fun i -> i, hub, heavy)
  in
  let g = Graph.make ~n edges in
  let labels = Array.make n (-1) in
  labels.(0) <- 0;
  labels.(s) <- 0;
  Instance.make_ic g labels

let random_sets rng ~universe ~density ~force_intersect =
  let a = Array.init universe (fun _ -> Dsf_util.Rng.float rng 1.0 < density) in
  let b = Array.init universe (fun _ -> Dsf_util.Rng.float rng 1.0 < density) in
  (* Hard instances keep |A ∩ B| <= 1: clear B on the intersection, then
     optionally plant exactly one common element. *)
  Array.iteri (fun i x -> if x && b.(i) then b.(i) <- false) a;
  if force_intersect then begin
    let i = Dsf_util.Rng.int rng universe in
    a.(i) <- true;
    b.(i) <- true
  end;
  a, b
