module Graph = Dsf_graph.Graph
module Instance = Dsf_graph.Instance
module Uf = Dsf_util.Union_find
module Bfs = Dsf_congest.Bfs
module Tree_ops = Dsf_congest.Tree_ops
module Pipeline = Dsf_congest.Pipeline
module Sim = Dsf_congest.Sim
module Bitsize = Dsf_util.Bitsize

let cr_to_ic ?(env = Sim.default_env) (cr : Instance.cr) =
  Sim.span env "cr_to_ic" @@ fun () ->
  let g = cr.Instance.cr_graph in
  let n = Graph.n g in
  let root = Bfs.max_id_root g in
  let tree, _ = Bfs.build ~env g ~root in
  let pair_bits = 2 * Bitsize.id_bits ~n in
  (* Convergecast the requests with forest filtering: a request that closes
     a cycle with already-known connectivity is redundant, so at most t - 1
     pairs survive (proof of Lemma 2.3).  The filtered pipelined upcast is
     exactly this with a trivial key. *)
  let items v =
    List.filter_map
      (fun w ->
        if w = v then None
        else Some { Pipeline.key = (Int.min v w, Int.max v w); a = v; b = w })
      cr.Instance.requests.(v)
  in
  let surviving, _ =
    Pipeline.filtered_upcast ~env g
      ~tree ~vn:n
      ~pre:[] ~items ~cmp:Dsf_util.Intmath.compare_pair
      ~bits:(fun _ -> pair_bits)
  in
  let pairs = List.map (fun it -> it.Pipeline.a, it.Pipeline.b) surviving in
  ignore
    (Tree_ops.broadcast ~env g ~tree ~items:pairs ~bits:(fun _ -> pair_bits));
  (* Everyone now computes components of the request graph locally.  The
     label of a component is its smallest terminal id. *)
  let uf = Uf.create n in
  let is_term = Array.make n false in
  Array.iteri
    (fun v rs ->
      List.iter
        (fun w ->
          is_term.(v) <- true;
          is_term.(w) <- true;
          ignore (Uf.union uf v w))
        rs)
    cr.Instance.requests;
  let smallest = Array.make n max_int in
  for v = 0 to n - 1 do
    if is_term.(v) then begin
      let r = Uf.find uf v in
      if v < smallest.(r) then smallest.(r) <- v
    end
  done;
  let labels =
    Array.init n (fun v ->
        if is_term.(v) then smallest.(Uf.find uf v) else -1)
  in
  Instance.make_ic g labels

let minimalize ?(env = Sim.default_env) (inst : Instance.ic) =
  Sim.span env "minimalize" @@ fun () ->
  let g = inst.Instance.graph in
  let n = Graph.n g in
  let root = Bfs.max_id_root g in
  let tree, _ = Bfs.build ~env g ~root in
  (* Each terminal reports (label, id); inner nodes forward at most two
     distinct witnesses per label (Lemma 2.4). *)
  let items v =
    if inst.Instance.labels.(v) >= 0 then [ inst.Instance.labels.(v), v ]
    else []
  in
  let id_bits = Bitsize.id_bits ~n in
  let witnesses, _ =
    Tree_ops.upcast_dedup ~env ~per_key:2
      g ~tree
      ~items ~key:fst
      ~bits:(fun _ -> 2 * id_bits)
  in
  let count = Hashtbl.create 16 in
  List.iter
    (fun (l, _) ->
      Hashtbl.replace count l (1 + Option.value ~default:0 (Hashtbl.find_opt count l)))
    witnesses;
  let keep = Hashtbl.fold (fun l c acc -> if c >= 2 then l :: acc else acc) count [] in
  ignore
    (Tree_ops.broadcast ~env g ~tree ~items:keep ~bits:(fun _ -> id_bits));
  let labels =
    Array.mapi
      (fun _ l -> if l >= 0 && List.mem l keep then l else -1)
      inst.Instance.labels
  in
  Instance.make_ic g labels
