module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Bitsize = Dsf_util.Bitsize

type node_result = {
  owner : int;
  offset : Frac.t;
  parent : int;
}

type state = {
  dist : Frac.t;
  owner : int;
  parent : int;
  hops : int;
  dirty : bool;
}

type msg = Relax of { dist : Frac.t; owner : int; hops : int }

let better (d1, o1, h1) (d2, o2, h2) =
  let c = Frac.compare d1 d2 in
  c < 0 || (c = 0 && (o1, h1) < (o2, h2))

(* Native flat-engine port.  Distances are exact dyadic rationals
   ({!Frac.t}), which do not fit an immediate int, so messages stay boxed —
   the sanctioned fallback — but only ONE [Relax] record is allocated per
   send-burst (shared across all neighbor slots), node state is a mutable
   record updated in place, and incoming edge weights resolve through a
   per-directed-CSR-position [Frac.t] table instead of a linear scan of the
   neighbor view per received message.  Wavefront, label order, and the
   pinned/frozen discipline are exactly those of the classic protocol. *)
type flat_state = {
  mutable fdist : Frac.t;
  mutable fowner : int;
  mutable fparent : int;
  mutable fhops : int;
  mutable fdirty : bool;
}

let run ?observer ?faults ?telemetry ?jobs ?chaos g ~sources ~frozen =
  let n = Graph.n g in
  let init = Hashtbl.create (max 1 (List.length sources)) in
  List.iter
    (fun (v, off, owner) ->
      match Hashtbl.find_opt init v with
      | Some (o, ow) when better (o, ow, 0) (off, owner, 0) -> ()
      | _ -> Hashtbl.replace init v (off, owner))
    sources;
  let unreached = Frac.of_int max_int in
  (* Sources are pinned: a node already covered by an active moat keeps its
     owner and offset (Definition 4.7 freezes Reg_{j-1}(v)); it announces its
     label once and ignores relaxations. *)
  let pinned v = Hashtbl.mem init v in
  let flat_proto () : (flat_state, msg) Sim.flat_protocol =
    let csr = Graph.csr g in
    let wfrac =
      Array.map (fun eid -> Frac.of_int (Graph.edge g eid).Graph.w)
        csr.Graph.eid
    in
    {
      fp_init =
        (fun view ->
          let v = view.Sim.node in
          match Hashtbl.find_opt init v with
          | Some (off, owner) when not frozen.(v) ->
              { fdist = off; fowner = owner; fparent = -1; fhops = 0;
                fdirty = true }
          | _ ->
              { fdist = unreached; fowner = -1; fparent = -1;
                fhops = max_int; fdirty = false });
      fp_step =
        (fun view ~round:_ st ~inbox ~emit ->
          let v = view.Sim.node in
          if frozen.(v) then st
          else begin
            if not (pinned v) then begin
              let k = Sim.inbox_len inbox in
              for i = 0 to k - 1 do
                let sender = Sim.inbox_src inbox i in
                let (Relax r) = Sim.inbox_msg inbox i in
                let w = wfrac.(Graph.pos csr ~src:v ~dst:sender) in
                let nd = Frac.add r.dist w in
                let nh = r.hops + 1 in
                (* An unreached node (owner < 0) adopts any label; the
                   sentinel distance is never compared (it would overflow
                   the dyadic lift). *)
                if
                  st.fowner < 0
                  || better (nd, r.owner, nh) (st.fdist, st.fowner, st.fhops)
                then begin
                  st.fdist <- nd;
                  st.fowner <- r.owner;
                  st.fparent <- sender;
                  st.fhops <- nh;
                  st.fdirty <- true
                end
              done
            end;
            if st.fdirty && st.fowner >= 0 then begin
              let m =
                Relax { dist = st.fdist; owner = st.fowner; hops = st.fhops }
              in
              Array.iter
                (fun (nb, _, _) -> if not frozen.(nb) then emit ~dst:nb m)
                view.Sim.nbrs
            end;
            st.fdirty <- false;
            st
          end);
      fp_is_done = (fun st -> not st.fdirty);
      fp_msg_bits =
        (fun (Relax r) ->
          Bitsize.int_bits (abs r.dist.Frac.num)
          + Bitsize.int_bits (max 1 r.dist.Frac.den_pow)
          + Bitsize.id_bits ~n
          + Bitsize.int_bits (max 1 r.hops));
      fp_wake = Some Sim.never;
    }
  in
  if Option.is_none chaos && Sim.native_ports () then begin
    let states, stats =
      Dsf_congest.Telemetry.span_opt telemetry "region_bf" (fun () ->
          Sim.run_flat ?observer ?faults ?telemetry ?jobs g (flat_proto ()))
    in
    ( Array.map
        (fun st ->
          if st.fowner >= 0 then
            { owner = st.fowner; offset = st.fdist; parent = st.fparent }
          else { owner = -1; offset = unreached; parent = -1 })
        states,
      stats )
  end
  else begin
  let proto : (state, msg) Sim.protocol =
    {
      init =
        (fun view ->
          let v = view.Sim.node in
          match Hashtbl.find_opt init v with
          | Some (off, owner) when not frozen.(v) ->
              { dist = off; owner; parent = -1; hops = 0; dirty = true }
          | _ ->
              { dist = unreached; owner = -1; parent = -1; hops = max_int; dirty = false });
      step =
        (fun view ~round:_ st ~inbox ->
          let v = view.Sim.node in
          if frozen.(v) then st, []
          else if pinned v then begin
            if st.dirty then begin
              let outbox =
                Array.to_list view.Sim.nbrs
                |> List.filter_map (fun (nb, _, _) ->
                       if frozen.(nb) then None
                       else
                         Some
                           ( nb,
                             Relax { dist = st.dist; owner = st.owner; hops = st.hops } ))
              in
              { st with dirty = false }, outbox
            end
            else st, []
          end
          else begin
            let st =
              List.fold_left
                (fun st (sender, Relax r) ->
                  let w = ref (-1) in
                  Array.iter
                    (fun (nb, wt, _) -> if nb = sender then w := wt)
                    view.Sim.nbrs;
                  assert (!w >= 0);
                  let nd = Frac.add r.dist (Frac.of_int !w) in
                  let nh = r.hops + 1 in
                  (* An unreached node (owner < 0) adopts any label; the
                     sentinel distance is never compared (it would overflow
                     the dyadic lift). *)
                  if
                    st.owner < 0
                    || better (nd, r.owner, nh) (st.dist, st.owner, st.hops)
                  then
                    { dist = nd; owner = r.owner; parent = sender; hops = nh; dirty = true }
                  else st)
                st inbox
            in
            if st.dirty && st.owner >= 0 then begin
              let outbox =
                Array.to_list view.Sim.nbrs
                |> List.filter_map (fun (nb, _, _) ->
                       if frozen.(nb) then None
                       else Some (nb, Relax { dist = st.dist; owner = st.owner; hops = st.hops }))
              in
              { st with dirty = false }, outbox
            end
            else { st with dirty = false }, []
          end);
      is_done = (fun st -> not st.dirty);
      msg_bits =
        (fun (Relax r) ->
          Bitsize.int_bits (abs r.dist.Frac.num)
          + Bitsize.int_bits (max 1 r.dist.Frac.den_pow)
          + Bitsize.id_bits ~n
          + Bitsize.int_bits (max 1 r.hops));
      (* Same wavefront discipline as {!Dsf_congest.Bellman_ford}: frozen,
         pinned-and-announced, and clean nodes all no-op without mail. *)
      wake = Some Sim.never;
    }
  in
  let states, stats =
    Dsf_congest.Telemetry.span_opt telemetry "region_bf" (fun () ->
        Dsf_congest.Fault.sim_run ?observer ?faults ?telemetry ?jobs
          ?chaos ~recovery:(Dsf_congest.Fault.immutable ()) g proto)
  in
  ( Array.map
      (fun st ->
        if st.owner >= 0 then
          { owner = st.owner; offset = st.dist; parent = st.parent }
        else { owner = -1; offset = unreached; parent = -1 })
      states,
    stats )
  end
