module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Pack = Dsf_util.Pack

type state = {
  pending : bool;
  forwarded : bool;
  marked : int list;
}

(* Native flat-engine port.  The whole node state packs into one immediate
   int (a {!Dsf_util.Pack} layout of pending flag, forwarded flag, and
   marked edge id + 1 — a node forwards at most once, so it marks at most
   one edge), tokens are the bare int 0, and the parent edge resolves
   through the CSR instead of [Graph.find_edge]'s option.  The classic
   protocol declares [wake = None] (full sweep): every extra node the sweep
   steps is a no-op (no mail, not pending — or already forwarded), so the
   port may declare [wake = Some Sim.never] and let the sparse scheduler
   track the token wavefront; rounds, messages, bits, and the selected
   edge set are bit-identical (differential suite enforced). *)
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

let token_flood ?observer ?faults ?telemetry ?jobs ?chaos g ~parent
    ~seeds =
  if Option.is_none chaos && Sim.native_ports () then begin
    let proto = flat_protocol g ~parent ~seeds in
    let states, stats =
      Dsf_congest.Telemetry.span_opt telemetry "token_flood" (fun () ->
          Sim.run_flat ?observer ?faults ?telemetry ?jobs g proto)
    in
    let f_eid = (Pack.layout [ 1; 1; Pack.width_of_max (Graph.m g) ]).(2) in
    (* Same extraction order as the classic leg: rev_append of each node's
       (singleton or empty) marked list over ascending node ids. *)
    let edges =
      Array.fold_left
        (fun acc st ->
          let e = Pack.get f_eid st in
          if e > 0 then (e - 1) :: acc else acc)
        [] states
    in
    edges, stats
  end
  else begin
    let proto : (state, unit) Sim.protocol =
      {
        init =
          (fun view ->
            { pending = seeds.(view.Sim.node); forwarded = false; marked = [] });
        step =
          (fun view ~round:_ st ~inbox ->
            let v = view.Sim.node in
            let st = if inbox <> [] then { st with pending = true } else st in
            if st.pending && (not st.forwarded) && parent.(v) >= 0 then begin
              let eid =
                match Graph.find_edge g v parent.(v) with
                | Some id -> id
                | None -> invalid_arg "Select.token_flood: parent not adjacent"
              in
              ( { st with forwarded = true; marked = eid :: st.marked },
                [ parent.(v), () ] )
            end
            else { st with forwarded = st.forwarded || st.pending }, []);
        is_done = (fun st -> (not st.pending) || st.forwarded);
        msg_bits = (fun () -> 1);
        wake = None;
      }
    in
    let states, stats =
      Dsf_congest.Telemetry.span_opt telemetry "token_flood" (fun () ->
          Dsf_congest.Fault.sim_run ?observer ?faults ?telemetry ?jobs
            ?chaos ~recovery:(Dsf_congest.Fault.immutable ()) g proto)
    in
    let edges =
      Array.fold_left (fun acc st -> List.rev_append st.marked acc) [] states
    in
    edges, stats
  end
