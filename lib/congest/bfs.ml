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

type state = { parent : int option; depth : int; announced : bool }

type msg = Join of int  (** sender's depth *)

let protocol ~root : (state, msg) Sim.protocol =
  {
      init =
        (fun view ->
          if view.Sim.node = root then
            { parent = Some (-1); depth = 0; announced = false }
          else { parent = None; depth = max_int; announced = false });
      step =
        (fun view ~round:_ st ~inbox ->
          (* Join the tree via the smallest-id neighbor heard from first. *)
          let st =
            if st.parent = None then begin
              let best =
                List.fold_left
                  (fun acc (sender, Join d) ->
                    match acc with
                    | Some (_, bs) when bs <= sender -> acc
                    | _ -> Some (d, sender))
                  None inbox
              in
              match best with
              | Some (d, sender) ->
                  { parent = Some sender; depth = d + 1; announced = false }
              | None -> st
            end
            else st
          in
          match st.parent with
          | Some _ when not st.announced ->
              let outbox =
                Array.to_list view.Sim.nbrs
                |> List.map (fun (nb, _, _) -> nb, Join st.depth)
              in
              { st with announced = true }, outbox
          | _ -> st, []);
      is_done = (fun st -> st.parent <> None && st.announced);
      msg_bits = (fun (Join d) -> Bitsize.int_bits (max d 1));
      (* Unreached nodes are not done; reached-and-announced nodes only
         react to mail. *)
      wake = Some Sim.never;
  }

(* Packed-state layout for the native port, declared through
   {!Dsf_util.Pack} so the encoding is width-checked and auditable next to
   every other flat port's.  Bit 0 is the announced flag, then the depth
   (<= n - 1 hops), then parent + 1 (0 = the root's sentinel parent, so the
   field spans [0 .. n]).  -1 stays outside the packed domain as the
   "unreached" sentinel. *)
let flat_fields ~n =
  match
    Pack.layout [ 1; Pack.width_of_max (max 1 (n - 1)); Pack.width_of_max n ]
  with
  | [| announced; depth; parent1 |] -> announced, depth, parent1
  | _ -> assert false

(* Native flat-engine BFS (see {!Sim.flat_protocol}): the same wavefront
   as [protocol], with the whole node state packed into one immediate int
   (layout above) so the flat engine's steady-state loop allocates
   nothing.  Unlike [protocol] — whose unreached nodes report not-done
   and are therefore stepped every round — unreached nodes here report
   done and are woken by arriving mail, so the sparse scheduler keeps the
   active list at the wavefront.  Quiescence round, messages, bits, and
   the resulting tree are unchanged (the differential suite checks this);
   only the stepped/telemetry series shrink. *)
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
    fp_msg_bits = (fun d -> Bitsize.int_bits (max d 1));
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
  let height = Array.fold_left max 0 depth in
  { root; parent; depth; children; height }

let build ?observer ?telemetry ?jobs ?chaos g ~root =
  let n = Graph.n g in
  (* Precondition check: on a disconnected graph the flood never reaches
     everyone and the simulation would spin to its round limit. *)
  if not (Graph.is_connected g) then
    invalid_arg "Bfs.build: disconnected graph";
  if Option.is_none chaos && Sim.native_ports () then begin
    (* Native port: run on the flat engine directly and decode the packed
       states.  Tree and stats are bit-identical to the classic path. *)
    let states, stats =
      Telemetry.span_opt telemetry "bfs" (fun () ->
          Sim.run_flat ?observer ?telemetry ?jobs g (flat_protocol ~n ~root))
    in
    let parent = Array.make n (-1) in
    let depth = Array.make n 0 in
    Array.iteri
      (fun v st ->
        match flat_state_parent_depth ~n st with
        | None -> invalid_arg "Bfs.build: disconnected graph"
        | Some (p, d) ->
            parent.(v) <- p;
            depth.(v) <- d)
      states;
    tree_of_parent_depth ~root ~parent ~depth, stats
  end
  else begin
  let states, stats =
    Telemetry.span_opt telemetry "bfs" (fun () ->
        Fault.sim_run ?observer ?telemetry ?jobs ?chaos
          ~recovery:(Fault.immutable ()) g (protocol ~root))
  in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  Array.iteri
    (fun v st ->
      match st.parent with
      | None -> invalid_arg "Bfs.build: disconnected graph"
      | Some p ->
          parent.(v) <- p;
          depth.(v) <- st.depth)
    states;
  tree_of_parent_depth ~root ~parent ~depth, stats
  end

let max_id_root g = Graph.n g - 1
