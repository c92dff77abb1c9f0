module Graph = Dsf_graph.Graph
module Bitsize = Dsf_util.Bitsize

(* ----------------------------------------------------------------------- *)
(* Plans: a pure, seeded description of how the network misbehaves.         *)
(* ----------------------------------------------------------------------- *)

type plan = Sim.plan = {
  seed : int;
  drop : float;
  duplicate : float;
  link_down : (int * int * int * int) list;
  crashes : (int * int * int) list;
}

let empty = { seed = 0; drop = 0.; duplicate = 0.; link_down = []; crashes = [] }

let plan ?(drop = 0.) ?(duplicate = 0.) ?(link_down = []) ?(crashes = []) ~seed
    () =
  if drop < 0. || drop >= 1. then
    invalid_arg "Fault.plan: drop probability must be in [0, 1)";
  if duplicate < 0. || duplicate > 1. then
    invalid_arg "Fault.plan: duplicate probability must be in [0, 1]";
  List.iter
    (fun (u, v, r0, r1) ->
      if u = v || r0 < 0 || r1 < r0 then
        invalid_arg "Fault.plan: bad link_down window")
    link_down;
  List.iter
    (fun (v, c, r) ->
      if v < 0 || c < 0 || r <= c then
        invalid_arg "Fault.plan: restart round must be after the crash round")
    crashes;
  { seed; drop; duplicate; link_down; crashes }

let is_empty p =
  p.drop = 0. && p.duplicate = 0. && p.link_down = [] && p.crashes = []

let maskable ?(with_recovery = false) p = with_recovery || p.crashes = []

(* Stateless PRF: every (round, src, dst, salt) tuple hashes to an
   independent-looking uniform draw, so fault decisions are deterministic
   in the plan's seed alone — independent of send order, of the engine's
   iteration order, and of how much unrelated traffic the run carries.
   splitmix64-style finalizer over OCaml's 63-bit ints. *)
let mix z =
  let z = z lxor (z lsr 30) in
  let z = z * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 27) in
  let z = z * 0x1B03738712FAD5C9 in
  z lxor (z lsr 31)

let prf ~seed ~round ~src ~dst ~salt =
  mix
    (mix (seed + (salt * 0x1E3779B97F4A7C15))
    + mix ((round * 0x100003) lxor (src * 0x10001) lxor dst))
  land max_int

let uniform h = float_of_int h /. float_of_int max_int

let instantiate p : Sim.faults =
  let links = Hashtbl.create (Int.max 4 (List.length p.link_down)) in
  List.iter
    (fun (u, v, r0, r1) ->
      let key = (Int.min u v, Int.max u v) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt links key) in
      Hashtbl.replace links key ((r0, r1) :: prev))
    p.link_down;
  let link_is_down ~round ~src ~dst =
    Hashtbl.length links > 0
    &&
    match Hashtbl.find_opt links (Int.min src dst, Int.max src dst) with
    | None -> false
    | Some ws -> List.exists (fun (r0, r1) -> round >= r0 && round <= r1) ws
  in
  let on_send ~round ~src ~dst =
    if link_is_down ~round ~src ~dst then Sim.Drop
    else if
      p.drop > 0. && uniform (prf ~seed:p.seed ~round ~src ~dst ~salt:1) < p.drop
    then Sim.Drop
    else if
      p.duplicate > 0.
      && uniform (prf ~seed:p.seed ~round ~src ~dst ~salt:2) < p.duplicate
    then Sim.Replicate 2
    else Sim.Deliver
  in
  let down ~round ~node =
    List.exists (fun (v, c, r) -> v = node && round >= c && round < r) p.crashes
  in
  { Sim.on_send; down }

(* A ready-made maskable chaos plan: drops, duplications, a few finite
   outage windows on real edges, and a few crash-and-restart windows.  All
   choices are PRF draws from the seed, so the plan is a pure function of
   (seed, graph) — the chaos soak and the differential suites replay it
   bit-exactly.  Counts scale gently with n; windows are placed in the
   first ~2n physical rounds, where every subroutine of a solve spends its
   early (and most vulnerable) life. *)
let chaos_plan ~seed g =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let m = Array.length edges in
  let draw i salt range = 1 + (prf ~seed ~round:i ~src:0 ~dst:0 ~salt mod range) in
  let horizon = Int.max 8 (2 * n) in
  let k = 2 + (n / 512) in
  let link_down =
    if m = 0 then []
    else
      List.init k (fun i ->
          let e = Graph.edge g (draw i 31 m - 1) in
          let r0 = draw i 32 horizon in
          let len = draw i 33 6 in
          (e.Graph.u, e.Graph.v, r0, r0 + len - 1))
  in
  let crashes =
    List.init k (fun i ->
        let v = draw i 41 n - 1 in
        let c = draw i 42 horizon in
        let len = draw i 43 8 in
        (v, c, c + len))
  in
  plan ~drop:0.05 ~duplicate:0.02 ~link_down ~crashes ~seed ()

(* ----------------------------------------------------------------------- *)
(* The hardening combinator: a reliable link layer plus an alpha-           *)
(* synchronizer, so the wrapped protocol executes its lossless round        *)
(* schedule exactly — inbox contents, arrival rounds and delivery order    *)
(* included — no matter how many messages the network drops or clones,     *)
(* how long links stay dark, or (with a recovery contract) how often       *)
(* nodes crash and restart.                                                *)
(* ----------------------------------------------------------------------- *)

(* Stream items carried by the link layer.  [Fin r] closes the sender's
   contribution to the receiver's virtual round [r]: "everything you should
   consume in your inner round r has been sent".  Virtual round r is safe to
   execute once every incident link has delivered its [Fin r]. *)
type 'm item = Payload of { vround : int; body : 'm } | Fin of { vround : int }

type 'm packet = Pkt of { seq : int; item : 'm item } | Ack of { upto : int }

type ('s, 'm) hstate = {
  mutable inner : 's;
  mutable vround : int;  (** next inner round to execute *)
  links : int array;  (** neighbor ids, ascending *)
  idx : (int, int) Hashtbl.t;  (** neighbor id -> index in [links] *)
  next_seq : int array;  (** per link: next sequence number to assign *)
  outq : (int * 'm item) list array;
      (** per link: unacked items, ascending seq (go-back-N window) *)
  last_tx : int array;  (** per link: round of the last transmission *)
  rto : int array;  (** per link: current retransmit timeout, in rounds *)
  in_upto : int array;  (** per link: highest in-order seq received *)
  fin_upto : int array;  (** per link: highest vround closed by a Fin *)
  pending : (int * 'm) list array;
      (** per link: delivered payloads not yet consumed, arrival order *)
  need_ack : bool array;
  mutable retrans : int;  (** this node's total retransmitted packets *)
  mutable restores : int;  (** checkpoint restores (restarts survived) *)
  mutable resync : int;
      (** physical rounds spent post-restore before the first inner round *)
  mutable recovering : bool;
  mutable ckpt_bits : int;  (** total bits written to stable storage *)
}

let retransmissions_of states =
  Array.fold_left (fun acc st -> acc + st.retrans) 0 states

type recovery_stats = {
  restores : int;
  recovery_rounds : int;
  checkpoint_bits : int;
}

let recovery_of states =
  Array.fold_left
    (fun acc (st : (_, _) hstate) ->
      {
        restores = acc.restores + st.restores;
        recovery_rounds = acc.recovery_rounds + st.resync;
        checkpoint_bits = acc.checkpoint_bits + st.ckpt_bits;
      })
    { restores = 0; recovery_rounds = 0; checkpoint_bits = 0 }
    states

(* ------------------------------------------------------------ recovery *)

(* What [harden] needs to checkpoint a protocol: a deep copy of the inner
   state (so later in-place mutation cannot corrupt the stable-storage
   image) and its stable-storage footprint in bits (accounting only). *)
type 's recoverable = { snapshot : 's -> 's; state_bits : 's -> int }

let immutable () = { snapshot = Fun.id; state_bits = (fun _ -> 63) }

(* A faithful deep copy of the link-layer state.  [links] and [idx] are
   write-once at init, so sharing them is safe; the queues hold immutable
   list/tuple spines, so copying the arrays suffices. *)
let copy_hstate rc st =
  {
    inner = rc.snapshot st.inner;
    vround = st.vround;
    links = st.links;
    idx = st.idx;
    next_seq = Array.copy st.next_seq;
    outq = Array.copy st.outq;
    last_tx = Array.copy st.last_tx;
    rto = Array.copy st.rto;
    in_upto = Array.copy st.in_upto;
    fin_upto = Array.copy st.fin_upto;
    pending = Array.copy st.pending;
    need_ack = Array.copy st.need_ack;
    retrans = st.retrans;
    restores = st.restores;
    resync = st.resync;
    recovering = st.recovering;
    ckpt_bits = st.ckpt_bits;
  }

(* A node is virtually quiescent when its inner protocol is done, it holds
   no unacknowledged payload (nothing of consequence in flight), and it has
   consumed every payload delivered to it.  When this holds at *every*
   node, the inner execution has reached exactly the lossless fixpoint
   (under the done-step no-op contract, see the .mli), so the omniscient
   [halt] below may stop the run. *)
let node_quiescent inner_is_done st =
  inner_is_done st.inner
  && Array.for_all
       (fun q ->
         List.for_all
           (fun (_, it) -> match it with Payload _ -> false | Fin _ -> true)
           q)
       st.outq
  && Array.for_all (fun l -> l = []) st.pending

let quiescent fp states =
  Array.for_all (node_quiescent fp.Sim.fp_is_done) states

(* Retransmit timer, in rounds: the initial per-link timeout covers the
   2-round send/ack latency and doubles on every timeout up to the cap,
   resetting on ack progress. *)
let initial_rto = 3
let rto_cap = 32

(* [harden] is a protocol *combinator*, the one sanctioned direct use of
   a protocol's [fp_init] and [fp_step] outside the simulator (each call
   carries its own lint allowance): the inner hooks run inside the
   wrapper's own accounted hooks, and every bit the inner protocol emits
   is re-sent (and charged) through the wrapper's own [emit]. *)
let harden ?recovery
    (fp : ('s, 'm) Sim.flat_protocol) : (('s, 'm) hstate, 'm packet) Sim.flat_protocol =
  (* Stable storage, one slot per node, lazily sized from the first view.
     The engines build every initial state before the first round and a
     restart re-inits only the restarted node, so each slot is only ever
     touched by its own node.  The array belongs to this [harden] instance: a hardened
     protocol with recovery is single-run (build a fresh one per run, as
     [sim_run] does). *)
  let stable = ref [||] in
  let fresh_init view =
    let deg = Array.length view.Sim.nbrs in
    let links = Array.map (fun (nb, _, _) -> nb) view.Sim.nbrs in
    Array.sort compare links;
    let idx = Hashtbl.create (Int.max 4 deg) in
    Array.iteri (fun i nb -> Hashtbl.replace idx nb i) links;
    {
      inner = (fp.Sim.fp_init view [@lint.allow "congest-discipline"]);
      vround = 0;
      links;
      idx;
      next_seq = Array.make deg 1;
      outq = Array.make deg [];
      last_tx = Array.make deg (-1);
      rto = Array.make deg initial_rto;
      in_upto = Array.make deg 0;
      fin_upto = Array.make deg 0;
      pending = Array.make deg [];
      need_ack = Array.make deg false;
      retrans = 0;
      restores = 0;
      resync = 0;
      recovering = false;
      ckpt_bits = 0;
    }
  in
  let init view =
    match recovery with
    | None -> fresh_init view
    | Some rc -> begin
        if Array.length !stable = 0 then stable := Array.make view.Sim.n None;
        match !stable.(view.Sim.node) with
        | None -> fresh_init view
        | Some ckpt ->
            (* Crash-and-restart: resume from the last checkpoint instead
               of a fresh init.  The copy keeps the stored image pristine;
               the go-back-N windows inside it make both stream directions
               heal by retransmission from the last acknowledged seq. *)
            let st = copy_hstate rc ckpt in
            st.restores <- st.restores + 1;
            st.recovering <- true;
            !stable.(view.Sim.node) <- Some (copy_hstate rc st);
            st
      end
  in
  (* Stable-storage footprint of one full checkpoint (write-through: every
     step rewrites the node's image, so this is charged per step). *)
  let hstate_bits rc st =
    let item_bits = function
      | Fin { vround } -> Bitsize.int_bits (Int.max 1 vround)
      | Payload { vround; body } ->
          Bitsize.int_bits (Int.max 1 vround) + fp.Sim.fp_msg_bits body
    in
    let b = ref (rc.state_bits st.inner + Bitsize.int_bits (Int.max 1 st.vround)) in
    let deg = Array.length st.links in
    for j = 0 to deg - 1 do
      b := !b + (4 * Bitsize.int_bits (Int.max 1 st.next_seq.(j)));
      List.iter
        (fun (s, it) -> b := !b + Bitsize.int_bits (Int.max 1 s) + item_bits it)
        st.outq.(j);
      List.iter
        (fun (vr, m) ->
          b := !b + Bitsize.int_bits (Int.max 1 vr) + fp.Sim.fp_msg_bits m)
        st.pending.(j)
    done;
    !b
  in
  let step view ~round:p st ~inbox ~emit =
    let deg = Array.length st.links in
    (* 1. Ingest packets: cumulative acks shrink the go-back-N windows;
       in-order data advances the stream; duplicates and gaps are dropped
       (gaps heal when the sender's timer resends the whole window). *)
    for i = 0 to Sim.inbox_len inbox - 1 do
      let j = Hashtbl.find st.idx (Sim.inbox_src inbox i) in
      match Sim.inbox_msg inbox i with
      | Ack { upto } ->
          let before = st.outq.(j) in
          let after = List.filter (fun (s, _) -> s > upto) before in
          if List.compare_lengths after before < 0 then begin
            st.outq.(j) <- after;
            st.rto.(j) <- initial_rto;
            st.last_tx.(j) <- p
          end
      | Pkt { seq; item } ->
          st.need_ack.(j) <- true;
          if seq = st.in_upto.(j) + 1 then begin
            st.in_upto.(j) <- seq;
            match item with
            | Payload { vround; body } ->
                st.pending.(j) <- st.pending.(j) @ [ (vround, body) ]
            | Fin { vround } ->
                if vround > st.fin_upto.(j) then st.fin_upto.(j) <- vround
          end
    done;
    (* 2. Execute at most one inner (virtual) round, once every link has
       closed it.  The inner inbox is rebuilt exactly as both engines
       deliver it: senders in ascending id order ([links] is sorted), each
       sender's payloads in send order. *)
    let fresh = Array.make (Int.max deg 1) [] in
    if Array.for_all (fun f -> f >= st.vround) st.fin_upto then begin
      let r = st.vround in
      let inbox_r = ref [] in
      for j = deg - 1 downto 0 do
        let mine, later = List.partition (fun (vr, _) -> vr = r) st.pending.(j) in
        st.pending.(j) <- later;
        inbox_r :=
          List.fold_right
            (fun (_, body) acc -> (st.links.(j), body) :: acc)
            mine !inbox_r
      done;
      (* Each inner send becomes the next payload item of its link, in
         emit order. *)
      let inner_emit ~dst body =
        let j =
          match Hashtbl.find_opt st.idx dst with
          | Some j -> j
          | None -> invalid_arg "Fault.harden: message to non-neighbor"
        in
        let s = st.next_seq.(j) in
        st.next_seq.(j) <- s + 1;
        fresh.(j) <- fresh.(j) @ [ (s, Payload { vround = r + 1; body }) ]
      in
      st.inner <-
        (fp.Sim.fp_step view ~round:r st.inner
           ~inbox:(Sim.inbox_of_list !inbox_r) ~emit:inner_emit
         [@lint.allow "congest-discipline"]);
      st.vround <- r + 1;
      st.recovering <- false;
      for j = 0 to deg - 1 do
        let s = st.next_seq.(j) in
        st.next_seq.(j) <- s + 1;
        fresh.(j) <- fresh.(j) @ [ (s, Fin { vround = r + 1 }) ]
      done
    end;
    (* 3. Transmit: new items go out immediately; an expired timer resends
       the whole unacked window (in order, so go-back-N reception heals any
       gap) with exponential backoff.  The backoff caps at [rto_cap], so
       resends keep firing forever — that is what rides out finite link
       outages and crash windows instead of merely probabilistic drops.
       Links go in ascending order, each link's data packets first, then
       its ack. *)
    for j = 0 to deg - 1 do
      let dst = st.links.(j) in
      let had = st.outq.(j) in
      let timed_out =
        had <> [] && st.last_tx.(j) >= 0 && p - st.last_tx.(j) >= st.rto.(j)
      in
      st.outq.(j) <- had @ fresh.(j);
      let to_send =
        if timed_out then begin
          let n_re = List.length had in
          st.retrans <- st.retrans + n_re;
          st.rto.(j) <- Int.min (2 * st.rto.(j)) rto_cap;
          st.outq.(j)
        end
        else fresh.(j)
      in
      if to_send <> [] then st.last_tx.(j) <- p;
      List.iter (fun (s, item) -> emit ~dst (Pkt { seq = s; item })) to_send;
      if st.need_ack.(j) then begin
        st.need_ack.(j) <- false;
        emit ~dst (Ack { upto = st.in_upto.(j) })
      end
    done;
    (* 4. Checkpoint (write-through): every step ends by persisting a deep
       copy of the whole hardened state, so a crash at any later round
       resumes from exactly this image.  The recovery counters live inside
       the image, which keeps them consistent across repeated crashes. *)
    (match recovery with
    | None -> ()
    | Some rc ->
        if st.recovering then st.resync <- st.resync + 1;
        st.ckpt_bits <- st.ckpt_bits + hstate_bits rc st;
        !stable.(view.Sim.node) <- Some (copy_hstate rc st));
    st
  in
  let packet_bits = function
    | Ack { upto } -> 2 + Bitsize.int_bits (Int.max 1 upto)
    | Pkt { seq; item } -> (
        2
        + Bitsize.int_bits (Int.max 1 seq)
        +
        match item with
        | Fin { vround } -> Bitsize.int_bits (Int.max 1 vround)
        | Payload { vround; body } ->
            Bitsize.int_bits (Int.max 1 vround) + fp.Sim.fp_msg_bits body)
  in
  {
    Sim.fp_init = init;
    fp_step = step;
    (* Never done: the synchronizer marches every physical round (timers,
       Fin markers), so every up node steps every round, and [sim_run]'s
       quiescence halt ends the run. *)
    fp_is_done = (fun _ -> false);
    fp_msg_bits = packet_bits;
  }

(* Post-run bookkeeping of a hardened run: fold the per-node
   retransmission counters into the stats (counted per node, in node
   state, so a step touches only its own node) and attribute
   the recovery work to the telemetry: resends, resynchronization
   rounds and checkpoint bits land in the metrics registry (the rounds
   themselves are already part of the run's engine-counted rounds). *)
let note_hardened telemetry states (stats : Sim.stats) =
  let retrans = retransmissions_of states in
  let rs = recovery_of states in
  (match telemetry with
  | Some tel ->
      if retrans > 0 then
        Telemetry.sim_run tel ~rounds:0 ~messages:0 ~bits:0
          ~max_edge_round_bits:0 ~budget_violations:0 ~dropped:0 ~duplicated:0
          ~retransmissions:retrans;
      if retrans > 0 || rs.restores > 0 || rs.checkpoint_bits > 0 then begin
        let metrics = Telemetry.metrics tel in
        Dsf_util.Metrics.incr metrics "fault/retransmissions" retrans;
        Dsf_util.Metrics.incr metrics "fault/restores" rs.restores;
        Dsf_util.Metrics.incr metrics "fault/recovery_rounds"
          rs.recovery_rounds;
        Dsf_util.Metrics.incr metrics "fault/checkpoint_bits"
          rs.checkpoint_bits;
        (* Flight recorder riding on the telemetry: one recovery summary
           event per hardened run with nonzero recovery work. *)
        match Telemetry.recorder tel with
        | Some r ->
            Recorder.recovery r ~retransmissions:retrans
              ~restores:rs.restores ~checkpoint_bits:rs.checkpoint_bits
        | None -> ()
      end
  | None -> ());
  { stats with Sim.retransmissions = retrans }

(* ----------------------------------------------------------- chaos runs *)

let sim_run ?max_rounds ?halt ?(env = Sim.default_env) ?recovery g fp =
  match env.Sim.network with
  | Sim.Lossless | Sim.Faults _ -> Sim.run_flat ?max_rounds ?halt ~env g fp
  | Sim.Chaos plan ->
      let network =
        if is_empty plan then Sim.Lossless else Sim.Faults (instantiate plan)
      in
      let hardened = harden ?recovery fp in
      let user_halt = halt in
      let halt hs =
        (* Evaluate the caller's halt every physical round, exactly as the
           lossless engines do: each inner state marches through the same
           state sequence (at most one virtual round per physical round),
           so a predicate that fires on the lossless run fires here on the
           same inner configuration. *)
        let early =
          match user_halt with
          | None -> false
          | Some h -> h (Array.map (fun st -> st.inner) hs)
        in
        early || quiescent fp hs
      in
      Sim.span env "hardened" (fun () ->
          let states, stats =
            Sim.run_flat ?max_rounds ~halt ~env:{ env with Sim.network } g
              hardened
          in
          let stats = note_hardened env.Sim.telemetry states stats in
          Array.map (fun st -> st.inner) states, stats)
