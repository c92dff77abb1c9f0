module Graph = Dsf_graph.Graph
module Sim = Dsf_congest.Sim
module Bitsize = Dsf_util.Bitsize

type node_result = {
  owner : int;
  offset : Frac.t;
  parent : int;
}

type msg = Relax of { dist : Frac.t; owner : int; hops : int }

(* Whether label (d1, o1, h1) beats (d2, o2, h2): distance, then owner,
   then hops.  Six arguments, not two triples, so a per-message
   comparison builds nothing. *)
let better d1 (o1 : int) (h1 : int) d2 o2 h2 =
  let c = Frac.compare d1 d2 in
  c < 0 || (c = 0 && (o1 < o2 || (o1 = o2 && h1 < h2)))

(* Node state of the relaxation protocol.  Distances are exact dyadic
   rationals ({!Frac.t}), which do not fit an immediate int, so messages
   stay boxed — the sanctioned fallback — but only ONE [Relax] record is
   allocated per send-burst (shared across all neighbor slots), node
   state is a mutable record updated in place, and incoming edge weights
   are read as ints from the CSR view and added with [Frac.add_int], so
   no run builds a weight table. *)
type flat_state = {
  mutable fdist : Frac.t;
  mutable fowner : int;
  mutable fparent : int;
  mutable fhops : int;
  mutable fdirty : bool;
}

let run ?(env = Sim.default_env) g ~sources ~frozen =
  let n = Graph.n g in
  (* Sources are pinned: a node already covered by an active moat keeps its
     owner and offset (Definition 4.7 freezes Reg_{j-1}(v)); it announces its
     label once and ignores relaxations.  A node listed twice keeps its
     better label. *)
  let pinned = Array.make n false in
  let src_off = Array.make n Frac.zero and src_owner = Array.make n (-1) in
  List.iter
    (fun (v, off, owner) ->
      if not (pinned.(v) && better src_off.(v) src_owner.(v) 0 off owner 0)
      then begin
        pinned.(v) <- true;
        src_off.(v) <- off;
        src_owner.(v) <- owner
      end)
    sources;
  let unreached = Frac.of_int max_int in
  let id_bits = Bitsize.id_bits ~n in
  let msg_bits (Relax r) =
    Frac.bits r.dist + id_bits + Bitsize.int_bits (Int.max 1 r.hops)
  in
  let flat_proto () : (flat_state, msg) Sim.flat_protocol =
    let csr = Graph.csr g in
    {
      fp_init =
        (fun view ->
          let v = view.Sim.node in
          if pinned.(v) && not frozen.(v) then
            { fdist = src_off.(v); fowner = src_owner.(v); fparent = -1;
              fhops = 0; fdirty = true }
          else
            { fdist = unreached; fowner = -1; fparent = -1;
              fhops = max_int; fdirty = false });
      fp_step =
        (fun view ~round:_ st ~inbox ~emit ->
          let v = view.Sim.node in
          if frozen.(v) then st
          else begin
            if not pinned.(v) then begin
              let k = Sim.inbox_len inbox in
              for i = 0 to k - 1 do
                let sender = Sim.inbox_src inbox i in
                let (Relax r) = Sim.inbox_msg inbox i in
                let w = csr.Graph.wgt.(Graph.pos csr ~src:v ~dst:sender) in
                let nd = Frac.add_int r.dist w in
                let nh = r.hops + 1 in
                (* An unreached node (owner < 0) adopts any label; the
                   sentinel distance is never compared (it would overflow
                   the dyadic lift). *)
                if
                  st.fowner < 0
                  || better nd r.owner nh st.fdist st.fowner st.fhops
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
              let nbrs = view.Sim.nbrs in
              for i = 0 to Array.length nbrs - 1 do
                let nb, _, _ = nbrs.(i) in
                if not frozen.(nb) then emit ~dst:nb m
              done
            end;
            st.fdirty <- false;
            st
          end);
      fp_is_done = (fun st -> not st.fdirty);
      fp_msg_bits = msg_bits;
    }
  in
  Sim.span env "region_bf" @@ fun () ->
  let states, _ =
    Dsf_congest.Fault.sim_run ~env
      ~recovery:
        {
          (Dsf_congest.Fault.immutable ()) with
          (* A fresh record; every field holds an immutable value. *)
          snapshot = (fun st -> { st with fdirty = st.fdirty });
        }
      g (flat_proto ())
  in
  Array.map
    (fun st ->
      if st.fowner >= 0 then
        { owner = st.fowner; offset = st.fdist; parent = st.fparent }
      else { owner = -1; offset = unreached; parent = -1 })
    states

type regions = {
  owners : int array;
  offsets : Frac.t array;
  parents : int array;
  covered : bool array;
}

let regions (ms : Moat_common.t) =
  let n = Array.length ms.Moat_common.tindex in
  let reg =
    {
      owners = Array.make n (-1);
      offsets = Array.make n Frac.zero;
      parents = Array.make n (-1);
      covered = Array.make n false;
    }
  in
  Array.iter
    (fun v ->
      reg.owners.(v) <- v;
      reg.covered.(v) <- true)
    ms.Moat_common.terms;
  reg

type phase = {
  frozen : bool array;
  growing : bool array;
  reached : node_result array;
}

let decompose ~(env : Sim.env) g reg ms =
  let n = Array.length reg.owners in
  let owner_active v =
    v >= 0 && Moat_common.active ms ms.Moat_common.tindex.(v)
  in
  let frozen =
    Array.init n (fun u -> reg.covered.(u) && not (owner_active reg.owners.(u)))
  in
  let sources = ref [] in
  for u = n - 1 downto 0 do
    if reg.covered.(u) && not frozen.(u) then
      sources := (u, reg.offsets.(u), reg.owners.(u)) :: !sources
  done;
  let reached = run ~env g ~sources:!sources ~frozen in
  let growing =
    Array.init n (fun u ->
        (not frozen.(u)) && owner_active reached.(u).owner)
  in
  { frozen; growing; reached }

let owner_at reg ph u =
  if ph.frozen.(u) then reg.owners.(u) else ph.reached.(u).owner

let offset_at reg ph u =
  if ph.frozen.(u) then reg.offsets.(u) else ph.reached.(u).offset

let freeze reg ph mu =
  Array.iteri
    (fun u growing ->
      if growing then begin
        let r = ph.reached.(u) in
        if reg.covered.(u) then reg.offsets.(u) <- Frac.sub reg.offsets.(u) mu
        else if Frac.compare r.offset mu <= 0 then begin
          reg.covered.(u) <- true;
          reg.owners.(u) <- r.owner;
          reg.parents.(u) <- r.parent;
          reg.offsets.(u) <- Frac.sub r.offset mu
        end
      end)
    ph.growing
