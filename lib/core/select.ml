module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Pack = Dsf_util.Pack
module Uf = Dsf_util.Union_find

(* The whole node state packs into one immediate int (a {!Dsf_util.Pack}
   layout of pending flag, forwarded flag, and marked edge id + 1 — a node
   forwards at most once, so it marks at most one edge), tokens are the
   bare int 0, and the parent edge resolves through the CSR.  A node with
   no mail that is not pending (or already forwarded) has nothing to do,
   so the protocol declares [wake = Some Sim.never] and the sparse
   scheduler tracks the token wavefront. *)
let flat_protocol g ~parent ~seeds :
    (int, int) Sim.flat_protocol =
  let csr = Graph.csr g in
  let[@warning "-8"] [| f_pend; f_fwd; f_eid |] =
    Pack.layout [ 1; 1; Pack.width_of_max (Graph.m g) ]
  in
  {
    fp_init =
      (fun view ->
        if seeds.(view.Sim.node) then Pack.put f_pend 1 0 else 0);
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let v = view.Sim.node in
        let st =
          if Sim.inbox_len inbox > 0 then Pack.set f_pend 1 st else st
        in
        let pending = Pack.get f_pend st = 1 in
        if pending && Pack.get f_fwd st = 0 && parent.(v) >= 0 then begin
          let p = Graph.pos csr ~src:v ~dst:parent.(v) in
          if p < 0 then invalid_arg "Select.token_flood: parent not adjacent";
          emit ~dst:parent.(v) 0;
          Pack.set f_eid (csr.Graph.eid.(p) + 1) (Pack.set f_fwd 1 st)
        end
        else if pending then Pack.set f_fwd 1 st
        else st);
    fp_is_done = (fun st -> Pack.get f_pend st = 0 || Pack.get f_fwd st = 1);
    fp_msg_bits = (fun _ -> 1);
    fp_wake = Some Sim.never;
  }

let token_flood ?(env = Sim.default_env) g ~parent ~seeds =
  Sim.span env "token_flood" @@ fun () ->
  let states, _ =
    Dsf_congest.Fault.sim_run ~env
      ~recovery:(Dsf_congest.Fault.immutable ()) g
      (flat_protocol g ~parent ~seeds)
  in
  let f_eid = (Pack.layout [ 1; 1; Pack.width_of_max (Graph.m g) ]).(2) in
  (* Marked edges in descending node order. *)
  let edges =
    Array.fold_left
      (fun acc st ->
        let e = Pack.get f_eid st in
        if e > 0 then (e - 1) :: acc else acc)
      [] states
  in
  edges

let merge_paths ~(env : Sim.env) g ~(labels : int array) ~parent merges =
  let t = Array.length labels in
  (* F_min: a merge is needed iff dropping it leaves two terminals of one
     input component in different moats. *)
  let needed ((a0, b0), _) =
    let uf = Uf.create t in
    List.iter
      (fun ((a, b), _) ->
        if a <> a0 || b <> b0 then ignore (Uf.union uf a b))
      merges;
    let disconnects = ref false in
    for ti = 0 to t - 1 do
      for tj = ti + 1 to t - 1 do
        if labels.(ti) = labels.(tj) && not (Uf.same uf ti tj)
        then disconnects := true
      done
    done;
    !disconnects
  in
  let solution = Array.make (Graph.m g) false in
  let seeds = Array.make (Graph.n g) false in
  List.iter
    (fun ((_, eid) as merge) ->
      if needed merge then begin
        let e = Graph.edge g eid in
        solution.(eid) <- true;
        seeds.(e.Graph.u) <- true;
        seeds.(e.Graph.v) <- true
      end)
    merges;
  List.iter
    (fun eid -> solution.(eid) <- true)
    (token_flood ~env g ~parent ~seeds);
  solution
