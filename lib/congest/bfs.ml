module Graph = Dsf_graph.Graph
module Bitsize = Dsf_util.Bitsize
module Pack = Dsf_util.Pack

type tree = {
  root : int;
  parent : int array;
  depth : int array;
  children : int list array;
  height : int;
}

(* Packed-state layout for the native port, declared through
   {!Dsf_util.Pack} so the encoding is width-checked and auditable next to
   every other flat port's.  Bit 0 is the announced flag, then the depth
   (<= n - 1 hops), then parent + 1 (0 = the root's sentinel parent, so the
   field spans [0 .. n]).  -1 stays outside the packed domain as the
   "unreached" sentinel. *)
let flat_fields ~n =
  match
    Pack.layout [ 1; Pack.width_of_max (Int.max 1 (n - 1)); Pack.width_of_max n ]
  with
  | [| announced; depth; parent1 |] -> announced, depth, parent1
  | _ -> assert false

(* Native flat-engine BFS (see {!Sim.flat_protocol}), the one
   implementation: the whole node state packs into one immediate int
   (layout above), so the flat engine's steady-state loop allocates
   nothing.  A node joins the tree via the smallest-id neighbor it hears
   from first.  Unreached nodes report done and are woken by arriving
   mail, so the sparse scheduler keeps the active list at the
   wavefront. *)
let flat_protocol ~n ~root : (int, int) Sim.flat_protocol =
  (* The layout depends only on [n], so it is computed once here — the
     protocol value captures three immutable fields and the hot step
     allocates nothing.  (An earlier version lazily synced the fields
     from inside [fp_step] through captured refs; that is exactly the
     cross-domain write the typed domain-race rule forbids, so the node
     count is a constructor argument instead.) *)
  let f_ann, f_depth, f_parent1 = flat_fields ~n in
  {
    fp_init =
      (fun view ->
        if view.Sim.n <> n then
          invalid_arg "Bfs.flat_protocol: graph size differs from ~n";
        if view.Sim.node = root then 0 else -1);
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let st =
          if st = -1 then begin
            (* Join the tree via the smallest-id sender in this inbox. *)
            let k = Sim.inbox_len inbox in
            if k = 0 then st
            else begin
              let best_s = ref (Sim.inbox_src inbox 0) in
              let best_d = ref (Sim.inbox_msg inbox 0) in
              for i = 1 to k - 1 do
                let s = Sim.inbox_src inbox i in
                if s < !best_s then begin
                  best_s := s;
                  best_d := Sim.inbox_msg inbox i
                end
              done;
              Pack.put f_parent1 (!best_s + 1)
                (Pack.put f_depth (!best_d + 1) 0)
            end
          end
          else st
        in
        if st >= 0 && Pack.get f_ann st = 0 then begin
          let depth = Pack.get f_depth st in
          Array.iter (fun (nb, _, _) -> emit ~dst:nb depth) view.Sim.nbrs;
          Pack.put f_ann 1 st
        end
        else st);
    fp_is_done = (fun st -> st = -1 || st land 1 = 1);
    fp_msg_bits = (fun d -> Bitsize.int_bits (Int.max d 1));
    fp_wake = Some Sim.never;
  }

let flat_state_parent_depth ~n st =
  if st = -1 then None
  else
    let _, f_depth, f_parent1 = flat_fields ~n in
    Some (Pack.get f_parent1 st - 1, Pack.get f_depth st)

let tree_of_parent_depth ~root ~parent ~depth =
  let n = Array.length parent in
  let children = Array.make n [] in
  Array.iteri
    (fun v p -> if p >= 0 then children.(p) <- v :: children.(p))
    parent;
  let height = Array.fold_left Int.max 0 depth in
  { root; parent; depth; children; height }

let build ?(env = Sim.default_env) g ~root =
  let n = Graph.n g in
  (* Precondition check: on a disconnected graph the flood never reaches
     everyone and the simulation would spin to its round limit. *)
  if not (Graph.is_connected g) then
    invalid_arg "Bfs.build: disconnected graph";
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  let fill v = function
    | None -> invalid_arg "Bfs.build: disconnected graph"
    | Some (p, d) ->
        parent.(v) <- p;
        depth.(v) <- d
  in
  Sim.span env "bfs" (fun () ->
      let states, _ =
        Fault.sim_run ~env ~recovery:(Fault.immutable ()) g
          (flat_protocol ~n ~root)
      in
      Array.iteri (fun v st -> fill v (flat_state_parent_depth ~n st)) states);
  tree_of_parent_depth ~root ~parent ~depth

let max_id_root g = Graph.n g - 1
