module Graph = Dsf_graph.Graph
module Bitsize = Dsf_util.Bitsize
module Pack = Dsf_util.Pack

type result = {
  dist : int array;
  src_of : int array;
  parent : int array;
  hops : int array;
  rounds : int;
}

type state = {
  dist : int;
  src : int;
  parent : int;
  hops : int;
  dirty : bool;  (** must announce our label next round *)
}

type msg = Relax of { dist : int; src : int; hops : int }

let inf = max_int / 4

(* Lexicographic label order: smaller distance first, then smaller source id
   (Definition 4.6 tie-breaking), then fewer hops. *)
let better ((d1 : int), (s1 : int), (h1 : int)) (d2, s2, h2) =
  d1 < d2 || (d1 = d2 && (s1 < s2 || (s1 = s2 && h1 < h2)))

let protocol ?weight_of ?radius g ~sources =
  let n = Graph.n g in
  let weight_of =
    match weight_of with
    | Some f -> f
    | None -> fun eid -> (Graph.edge g eid).Graph.w
  in
  let cap = match radius with Some r -> r | None -> inf in
  (* Per-node map neighbor -> effective incoming edge weight, to avoid a
     linear scan per received message. *)
  let nbr_weight =
    Array.init n (fun v ->
        let h = Hashtbl.create 8 in
        Array.iter
          (fun (nb, _, eid) -> Hashtbl.replace h nb (weight_of eid))
          (Graph.adj g v);
        h)
  in
  let init_dist = Hashtbl.create (List.length sources) in
  List.iter
    (fun (v, d0) ->
      assert (d0 >= 0);
      match Hashtbl.find_opt init_dist v with
      | Some d when d <= d0 -> ()
      | _ -> Hashtbl.replace init_dist v d0)
    sources;
  {
    Sim.fp_init =
      (fun view ->
        match Hashtbl.find_opt init_dist view.Sim.node with
        | Some d0 when d0 <= cap ->
            { dist = d0; src = view.Sim.node; parent = -1; hops = 0; dirty = true }
        | _ -> { dist = inf; src = -1; parent = -1; hops = inf; dirty = false });
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let st = ref st in
        for i = 0 to Sim.inbox_len inbox - 1 do
          let sender = Sim.inbox_src inbox i in
          let (Relax r) = Sim.inbox_msg inbox i in
          let w = Hashtbl.find nbr_weight.(view.Sim.node) sender in
          let nd = r.dist + w and nh = r.hops + 1 in
          if nd <= cap && better (nd, r.src, nh) (!st.dist, !st.src, !st.hops)
          then
            st := { dist = nd; src = r.src; parent = sender; hops = nh; dirty = true }
        done;
        let st = !st in
        if st.dirty && st.src >= 0 then
          Array.iter
            (fun (nb, _, _) ->
              emit ~dst:nb (Relax { dist = st.dist; src = st.src; hops = st.hops }))
            view.Sim.nbrs;
        { st with dirty = false });
    (* Purely wavefront-driven: a clean node with no mail has nothing to
       do, so the simulator may skip it. *)
    fp_is_done = (fun st -> not st.dirty);
    fp_msg_bits =
      (fun (Relax r) ->
        Bitsize.int_bits (Int.max 1 r.dist)
        + Bitsize.id_bits ~n
        + Bitsize.int_bits (Int.max 1 r.hops));
  }

(* Native flat-engine port.  Same wavefront, same messages, same label
   order as [protocol], with the whole message packed into one immediate
   int (a {!Dsf_util.Pack} layout of distance, source id, hops) and the
   per-node state kept in a mutable record that is allocated once at init
   and updated in place — so the steady-state round loop allocates
   nothing.  Distances are bounded by min(radius cap, max initial distance
   + (n - 1) * max effective weight): every accepted label's provenance
   chain is a simple path (a repeated node would have had to accept a
   lexicographically worse label), so hops <= n - 1 and the bound is
   sound.  When the three widths do not fit an immediate int, the
   constructor declines ([None]) and [run] falls back to the boxed
   [protocol], the only implementation for such wide inputs. *)
type flat_state = {
  mutable fdist : int;
  mutable fsrc : int;
  mutable fparent : int;
  mutable fhops : int;
  mutable fdirty : bool;
}

let flat_protocol ?weight_of ?radius g ~sources =
  let n = Graph.n g in
  let weight_of =
    match weight_of with
    | Some f -> f
    | None -> fun eid -> (Graph.edge g eid).Graph.w
  in
  let cap = match radius with Some r -> r | None -> inf in
  let csr = Graph.csr g in
  (* Effective incoming weight per directed CSR position: one array lookup
     per received message (the boxed protocol pays a hashtable find). *)
  let wpos = Array.map weight_of csr.Graph.eid in
  let init_dist = Hashtbl.create (Int.max 1 (List.length sources)) in
  List.iter
    (fun (v, d0) ->
      assert (d0 >= 0);
      match Hashtbl.find_opt init_dist v with
      | Some d when d <= d0 -> ()
      | _ -> Hashtbl.replace init_dist v d0)
    sources;
  let max_d0 =
    Hashtbl.fold (fun _ d acc -> if d <= cap then Int.max acc d else acc)
      init_dist 0
  in
  let max_w = Array.fold_left Int.max 0 wpos in
  (* Overflow-safe distance bound; a blowup here means the widths cannot
     fit anyway, so decline rather than risk wraparound. *)
  if max_w > 0 && n - 1 > (inf - max_d0) / max_w then None
  else begin
    let dmax = Int.min cap (max_d0 + ((n - 1) * max_w)) in
    let wd = Pack.width_of_max dmax in
    let ws = Pack.width_of_max (Int.max 1 (n - 1)) in
    let wh = Pack.width_of_max (Int.max 1 (n - 1)) in
    if wd + ws + wh > 62 then None
    else begin
      let[@warning "-8"] [| f_dist; f_src; f_hops |] =
        Pack.layout [ wd; ws; wh ]
      in
      let fp : (flat_state, int) Sim.flat_protocol =
        {
          fp_init =
            (fun view ->
              match Hashtbl.find_opt init_dist view.Sim.node with
              | Some d0 when d0 <= cap ->
                  {
                    fdist = d0;
                    fsrc = view.Sim.node;
                    fparent = -1;
                    fhops = 0;
                    fdirty = true;
                  }
              | _ ->
                  {
                    fdist = inf;
                    fsrc = -1;
                    fparent = -1;
                    fhops = inf;
                    fdirty = false;
                  });
          fp_step =
            (fun view ~round:_ st ~inbox ~emit ->
              let v = view.Sim.node in
              let k = Sim.inbox_len inbox in
              for i = 0 to k - 1 do
                let sender = Sim.inbox_src inbox i in
                let m = Sim.inbox_msg inbox i in
                let d = Pack.get f_dist m in
                let s = Pack.get f_src m in
                let h = Pack.get f_hops m in
                let w = wpos.(Graph.pos csr ~src:v ~dst:sender) in
                let nd = d + w and nh = h + 1 in
                (* Inlined [better (nd, s, nh) (st.fdist, st.fsrc,
                   st.fhops)]: the unreached sentinel (-1 source) is only
                   ever compared behind a strictly smaller distance, so
                   the explicit lexicographic test matches the tuple
                   compare without boxing. *)
                if
                  nd <= cap
                  && (nd < st.fdist
                     || (nd = st.fdist
                        && (s < st.fsrc || (s = st.fsrc && nh < st.fhops))))
                then begin
                  st.fdist <- nd;
                  st.fsrc <- s;
                  st.fparent <- sender;
                  st.fhops <- nh;
                  st.fdirty <- true
                end
              done;
              if st.fdirty && st.fsrc >= 0 then begin
                let packed =
                  Pack.put f_dist st.fdist
                    (Pack.put f_src st.fsrc (Pack.put f_hops st.fhops 0))
                in
                Array.iter
                  (fun (nb, _, _) -> emit ~dst:nb packed)
                  view.Sim.nbrs
              end;
              st.fdirty <- false;
              st);
          fp_is_done = (fun st -> not st.fdirty);
          fp_msg_bits =
            (fun m ->
              Bitsize.int_bits (Int.max 1 (Pack.get f_dist m))
              + Bitsize.id_bits ~n
              + Bitsize.int_bits (Int.max 1 (Pack.get f_hops m)));
        }
      in
      Some fp
    end
  end

let run ?weight_of ?radius ?max_rounds ?(env = Sim.default_env) g ~sources =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let src_of = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let hops = Array.make n max_int in
  let fill ~d ~s ~p ~h v =
    if s >= 0 then begin
      dist.(v) <- d;
      src_of.(v) <- s;
      parent.(v) <- p;
      hops.(v) <- h
    end
  in
  (* The input alone picks the leg: the packed port whenever its widths
     fit an immediate int, the boxed protocol otherwise. *)
  let native = flat_protocol ?weight_of ?radius g ~sources in
  let rounds =
    Sim.span env "bellman_ford" @@ fun () ->
    match native with
    | Some fp ->
        let states, stats =
          Fault.sim_run ?max_rounds ~env
            ~recovery:
              {
                (Fault.immutable ()) with
                (* A fresh record; every field holds an immutable value. *)
                snapshot = (fun st -> { st with fdirty = st.fdirty });
              }
            g fp
        in
        Array.iteri
          (fun v st -> fill ~d:st.fdist ~s:st.fsrc ~p:st.fparent ~h:st.fhops v)
          states;
        stats.Sim.rounds
    | None ->
        let states, stats =
          Fault.sim_run ?max_rounds ~env ~recovery:(Fault.immutable ()) g
            (protocol ?weight_of ?radius g ~sources)
        in
        Array.iteri
          (fun v (st : state) ->
            fill ~d:st.dist ~s:st.src ~p:st.parent ~h:st.hops v)
          states;
        stats.Sim.rounds
  in
  { dist; src_of; parent; hops; rounds }

let sssp ?(env = Sim.default_env) g ~src = run ~env g ~sources:[ src, 0 ]
