module Graph = Dsf_graph.Graph

type view = {
  node : int;
  n : int;
  nbrs : (int * int * int) array;
}

type stats = {
  rounds : int;
  messages : int;
  total_bits : int;
  max_edge_round_bits : int;
  budget_violations : int;
  dropped : int;
  duplicated : int;
  retransmissions : int;
}

type fault_action = Deliver | Drop | Replicate of int

type faults = {
  on_send : round:int -> src:int -> dst:int -> fault_action;
  down : round:int -> node:int -> bool;
}

type abort = {
  at_round : int;
  snapshot : stats;
  recent : (int * (int * int * int) list) list;
}

exception Round_limit of abort

let postmortem_window = 8

type plan = {
  seed : int;
  drop : float;
  duplicate : float;
  link_down : (int * int * int * int) list;
  crashes : (int * int * int) list;
}

type network = Lossless | Faults of faults | Chaos of plan

type env = {
  telemetry : Telemetry.t option;
  ledger : Ledger.t option;
  network : network;
  sanitize : bool;
}

(* Read once at module init so every run in a process agrees; ci.sh's
   sanitized smoke sets DSF_SANITIZE=1. *)
let env_sanitize =
  match Sys.getenv_opt "DSF_SANITIZE" with
  | Some ("1" | "true" | "on") -> true
  | _ -> false

let default_env =
  {
    telemetry = None;
    ledger = None;
    network = Lossless;
    sanitize = env_sanitize;
  }

let span env name f = Telemetry.span_opt env.telemetry name f

let charge env label rounds =
  Option.iter (fun l -> Ledger.charge l label rounds) env.ledger;
  Option.iter (fun t -> Telemetry.charge t rounds) env.telemetry

let measure ?(env = default_env) f =
  let tel =
    Telemetry.create
      ~clock:(fun () -> 0L)
      ?recorder:(Option.bind env.telemetry Telemetry.recorder)
      ()
  in
  let result = f { env with telemetry = Some tel } in
  let s = Telemetry.inclusive (Telemetry.root tel) in
  ( result,
    {
      rounds = s.rounds;
      messages = s.messages;
      total_bits = s.bits;
      max_edge_round_bits = s.max_edge_round_bits;
      budget_violations = s.budget_violations;
      dropped = s.dropped;
      duplicated = s.duplicated;
      retransmissions = s.retransmissions;
    } )

(* Per-node map from neighbor id to the *directed edge slot* of the edge
   towards that neighbor: edge [eid] sent from its stored [u] endpoint
   occupies slot [2*eid], from its [v] endpoint slot [2*eid + 1].  Built once
   per run, the table gives O(1) recipient validation (the seed simulator
   scanned the adjacency array per message) and indexes the flat per-round
   edge-bits accumulator. *)
let neighbor_slots g views =
  Array.map
    (fun view ->
      let h = Hashtbl.create (Int.max 4 (Array.length view.nbrs)) in
      Array.iter
        (fun (nb, _, eid) ->
          let e = Graph.edge g eid in
          let slot = (2 * eid) + if e.Graph.u = view.node then 0 else 1 in
          Hashtbl.replace h nb slot)
        view.nbrs;
      h)
    views

let slot_of_msg nbr_slots ~n ~src ~dst =
  if dst < 0 || dst >= n then
    invalid_arg "Sim.run_flat: message to nonexistent node";
  match Hashtbl.find nbr_slots.(src) dst with
  | slot -> slot
  | exception Not_found -> invalid_arg "Sim.run_flat: message to non-neighbor"

(* Growable int buffer for the flat engine's per-round lists (touched
   CSR positions, undone/recipient candidates). *)
type ibuf = { mutable ia : int array; mutable ilen : int }

let ibuf_make () = { ia = Array.make 16 0; ilen = 0 }

let ibuf_push b x =
  if b.ilen = Array.length b.ia then begin
    let a = Array.make (2 * b.ilen) 0 in
    Array.blit b.ia 0 a 0 b.ilen;
    b.ia <- a
  end;
  b.ia.(b.ilen) <- x;
  b.ilen <- b.ilen + 1

(* The staging window: one recorder buffer per round modulo
   [postmortem_window], cleared when its slot is reused.  A recording run
   stages every round and the recorder appends the round's slot at the
   barrier; a run that is not recording stages its sends only from round
   [max_rounds - postmortem_window] on, since an abort is raised at round
   [max_rounds] and reports only those rounds.  Either way, at the abort
   the window holds the sends of the last rounds, in send order. *)
let window_make () = Array.init postmortem_window (fun _ -> Recorder.buf_make ())

let abort_run ~round ~snapshot window =
  let lo = Int.max 0 (round - postmortem_window) in
  let recent =
    List.init (round - lo) (fun i ->
        let r = lo + i in
        r, Recorder.buf_sends window.(r mod postmortem_window))
  in
  raise (Round_limit { at_round = round; snapshot; recent })

(* Count a finished (or aborting) run: its rounds go to the env's ledger
   and its stats to the enclosing telemetry span.  Called exactly once per
   run, on both the normal and the Round_limit exit, so ledger and span
   totals match the stats the caller sees (or would have seen) either
   way. *)
let finish env (s : stats) =
  Option.iter (fun l -> Ledger.add_run l s.rounds) env.ledger;
  match env.telemetry with
  | None -> ()
  | Some t ->
      Telemetry.sim_run t ~rounds:s.rounds ~messages:s.messages
        ~bits:s.total_bits ~max_edge_round_bits:s.max_edge_round_bits
        ~budget_violations:s.budget_violations ~dropped:s.dropped
        ~duplicated:s.duplicated ~retransmissions:s.retransmissions

(* Inboxes are [mbuf] arenas (see the flat-core layout below); a step
   reads its mail through the accessors and never sees the buffer. *)
type 'm mbuf = {
  mutable srcs : int array;
  mutable msgs : 'm array;
  mutable mlen : int;
}

type 'm inbox = 'm mbuf

let inbox_len b = b.mlen

let inbox_src b i =
  if i < 0 || i >= b.mlen then invalid_arg "Sim.inbox_src";
  (Array.unsafe_get b.srcs i [@lint.allow "unsafe-array"])

let inbox_msg b i =
  if i < 0 || i >= b.mlen then invalid_arg "Sim.inbox_msg";
  (Array.unsafe_get b.msgs i [@lint.allow "unsafe-array"])

let mbuf_make () = { srcs = [||]; msgs = [||]; mlen = 0 }

(* The pushed message seeds the first allocation of [msgs], so no dummy
   'm value is ever needed.  Buffers start empty in every run, so each
   node's first push of a run takes the [cap = 0] branch, whose four-slot
   literals cost about 14 ns against 35 ns for two [Array.make] calls
   (x86-64). *)
let mbuf_push b src msg =
  let cap = Array.length b.srcs in
  if b.mlen = cap then begin
    if cap = 0 then begin
      b.srcs <- [| 0; 0; 0; 0 |];
      b.msgs <- [| msg; msg; msg; msg |]
    end
    else begin
      let ncap = 2 * cap in
      let s = Array.make ncap 0 in
      Array.blit b.srcs 0 s 0 b.mlen;
      b.srcs <- s;
      let q = Array.make ncap msg in
      Array.blit b.msgs 0 q 0 b.mlen;
      b.msgs <- q
    end
  end;
  b.srcs.(b.mlen) <- src;
  b.msgs.(b.mlen) <- msg;
  b.mlen <- b.mlen + 1

type ('s, 'm) flat_protocol = {
  fp_init : view -> 's;
  fp_step :
    view -> round:int -> 's -> inbox:'m inbox -> emit:(dst:int -> 'm -> unit)
    -> 's;
  fp_is_done : 's -> bool;
  fp_msg_bits : 'm -> int;
}

let inbox_of_list l =
  let b = mbuf_make () in
  List.iter (fun (src, msg) -> mbuf_push b src msg) l;
  b

(* The seed simulator's loop, kept verbatim as the semantic anchor for the
   differential test suite (test_sim_equiv): every node is stepped every
   round, done or not, per-round accounting goes through a fresh
   hashtable, quiescence re-scans the full state vector.  The only changes
   from the seed are the slot-based recipient validation, the staging
   window, and the one protocol type: mail is still delivered as lists,
   and each step reads its list through [inbox_of_list].  Fault injection is a production-engine feature; this loop runs
   lossless networks only. *)
let run_reference ?max_rounds ?halt ?(env = default_env) g fp =
  (match env.network with
  | Lossless -> ()
  | Faults _ | Chaos _ ->
      invalid_arg "Sim.run_reference: fault injection needs the flat engine");
  let telemetry = env.telemetry in
  let rcd = Option.bind telemetry Telemetry.recorder in
  let rec_on = Option.is_some rcd in
  let n = Graph.n g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 10_000 + (200 * n)
  in
  let window = window_make () in
  let window_from = max_rounds - postmortem_window in
  let views =
    Array.init n (fun node -> { node; n; nbrs = Graph.adj g node })
  in
  let states = Array.map fp.fp_init views in
  let nbr_slots = neighbor_slots g views in
  let inboxes : (int * 'm) list array = Array.make n [] in
  let next_inboxes : (int * 'm) list array = Array.make n [] in
  let budget = Dsf_util.Bitsize.congest_budget ~n in
  let messages = ref 0 in
  let total_bits = ref 0 in
  let max_edge_round_bits = ref 0 in
  let budget_violations = ref 0 in
  let round = ref 0 in
  let quiescent = ref false in
  let current_stats () =
    {
      rounds = !round;
      messages = !messages;
      total_bits = !total_bits;
      max_edge_round_bits = !max_edge_round_bits;
      budget_violations = !budget_violations;
      dropped = 0;
      duplicated = 0;
      retransmissions = 0;
    }
  in
  while not !quiescent do
    if !round >= max_rounds then begin
      let snapshot = current_stats () in
      finish env snapshot;
      abort_run ~round:!round ~snapshot window
    end;
    let rb = window.(!round mod postmortem_window) in
    Recorder.buf_clear rb;
    let staging = rec_on || !round >= window_from in
    (* bits sent this round per (sender, neighbor-slot); keyed by sender and
       destination since each unordered edge has two directions. *)
    let edge_bits = Hashtbl.create 64 in
    let sent_any = ref false in
    let bits0 = !total_bits in
    let delivered = ref 0 in
    for v = 0 to n - 1 do
      let inbox = List.rev inboxes.(v) in
      delivered := !delivered + List.length inbox;
      inboxes.(v) <- [];
      (* The seed loop steps every node; the recorder stamps only
         mail-consuming steps, the event both engines share. *)
      if rec_on && inbox <> [] then Recorder.ev_step rb v;
      (* The step's emits are collected, in emit order, into the outbox
         the seed walked. *)
      let outbox = ref [] in
      let state' =
        fp.fp_step views.(v) ~round:!round states.(v)
          ~inbox:(inbox_of_list inbox)
          ~emit:(fun ~dst msg -> outbox := (dst, msg) :: !outbox)
      in
      states.(v) <- state';
      List.iter
        (fun (dst, msg) ->
          ignore (slot_of_msg nbr_slots ~n ~src:v ~dst);
          sent_any := true;
          incr messages;
          let bits = fp.fp_msg_bits msg in
          total_bits := !total_bits + bits;
          if staging then Recorder.ev_send rb ~src:v ~dst ~bits ~fate:1;
          let key = (v * n) + dst in
          let prev = Option.value ~default:0 (Hashtbl.find_opt edge_bits key) in
          let now = prev + bits in
          Hashtbl.replace edge_bits key now;
          next_inboxes.(dst) <- (v, msg) :: next_inboxes.(dst))
        (List.rev !outbox)
    done;
    Hashtbl.iter
      (fun _ bits ->
        if bits > !max_edge_round_bits then max_edge_round_bits := bits;
        if bits > budget then incr budget_violations)
      edge_bits;
    for v = 0 to n - 1 do
      inboxes.(v) <- next_inboxes.(v);
      next_inboxes.(v) <- []
    done;
    (match rcd with
    | Some r ->
        Recorder.round r !round;
        Recorder.append r rb
    | None -> ());
    (* The one telemetry branch per round; the seed loop steps every node,
       so the active set is all of [n]. *)
    (match telemetry with
    | Some t ->
        Telemetry.sim_round t ~stepped:n ~delivered:!delivered
          ~bits:(!total_bits - bits0)
    | None -> ());
    incr round;
    let all_done = Array.for_all fp.fp_is_done states in
    let inflight = Array.exists (fun l -> l <> []) inboxes in
    let halted = match halt with Some f -> f states | None -> false in
    quiescent := halted || (all_done && (not inflight) && not !sent_any)
  done;
  let final = current_stats () in
  finish env final;
  states, final

(* Process-global by definition: the one engine shim left (see the
   .mli); dsf-lint keeps anyone outside the differential suites from
   touching it. *)
let use_reference_engine = ref false [@@lint.allow "global-state"]

(* ------------------------------------------------------------------ *)
(* Flat-core engine: arena message slots over the CSR graph view, every
   run stepped on the calling domain.

   Layout (see DESIGN.md, "Engine architecture"):

   - messages live in [mbuf] arenas: parallel (srcs : int array,
     msgs : 'm array) pairs that start empty in every run, grow to the
     run's peak and are recycled by resetting the length, so the
     steady-state round loop allocates nothing for unboxed ('m = int)
     protocols (test_congest's relay test pins it);
   - per-round per-(edge, direction) bits live in a flat array indexed by
     *CSR position* (the sender's directed slot);
   - sends are staged per destination and delivered at the round
     barrier by swapping the staging array with the (all empty) inbox
     array; nodes step in ascending order, so every inbox receives its
     mail in the global send order (sender ascending, emit order within
     a sender) of the reference loop;
   - each round stages its recorder events, and its sends in the last
     [postmortem_window] rounds before [max_rounds], into the staging
     window (see [window_make]), built on the first staged round. *)

(* In-place ascending sort of [a.(0 .. len - 1)]: insertion sort below a
   small cutoff, median-of-three quicksort above.  Avoids [Array.sort]'s
   whole-array constraint (the candidate buffer has a live prefix) and its
   closure call per comparison.  The [int] annotations are what make every
   [<] and [>] below an inline integer compare: unannotated, the functions
   generalize to ['a array] and each comparison is a C call into the
   runtime's polymorphic compare.  The helpers are top-level functions,
   not local closures over [a]: the barrier sorts every round, and local
   closures would be allocated on every call. *)
let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let rec quicksort (a : int array) lo hi =
  if hi - lo < 16 then insertion_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi) < a.(lo) then swap a hi lo;
    if a.(hi) < a.(mid) then swap a hi mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    quicksort a lo !j;
    quicksort a !i hi
  end

let sort_int_prefix a len = if len > 1 then quicksort a 0 (len - 1)

(* Merge the ascending, disjoint prefixes [a.(0 .. na - 1)] and
   [b.(0 .. nb - 1)] into [dst], which must be neither; returns the
   merged length.  The barrier builds the next active list with it. *)
let merge_sorted (a : int array) na (b : int array) nb (dst : int array) =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin
      dst.(!k) <- x;
      incr i
    end
    else begin
      dst.(!k) <- y;
      incr j
    end;
    incr k
  done;
  (* Plain loops, not [Array.blit]: on a major-heap destination the
     runtime's blit cannot tell these are ints and writes each element
     through the write barrier. *)
  while !i < na do
    dst.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < nb do
    dst.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  !k

(* --- Dynamic node-locality sanitizer ---------------------------------- *)
(* The runtime half of the typed domain-race rule (lib/lint/typed_lint.ml):
   the static pass proves [fp_step] bodies only touch node-local state by
   construction — a CONGEST node knows only its own state and its mail —
   and the sanitizer catches what escapes the analysis: aliased states
   smuggled out of [fp_init], emits issued from stashed closures, mail
   staged for nodes outside the recipient list.  Every check is read-only
   (private hash snapshots and write stamps), so a clean sanitized run is
   bit-identical to an unsanitized one; the differential suite pins
   this. *)

type sanitizer_violation = {
  sv_kind : string;
  sv_round : int;
  sv_node : int;
  sv_detail : string;
}

exception Sanitizer_violation of sanitizer_violation

let () =
  Printexc.register_printer (function
    | Sanitizer_violation v ->
        Some
          (Printf.sprintf
             "Sim.Sanitizer_violation { kind = %S; round = %d; node = %d; \
              detail = %S }"
             v.sv_kind v.sv_round v.sv_node v.sv_detail)
    | _ -> None)

(* Structural fingerprint of a node state.  [hash_param] with deep limits
   so nested mutable fields (records behind aliases) register; collisions
   only ever mask a violation, never invent one. *)
let state_hash st = Hashtbl.hash_param 128 512 st

let flat_engine ?max_rounds ?halt ~env g fp =
  (* The engine takes faults as callbacks only; hardening is the job of
     [Fault.sim_run], which turns a [Chaos] env into a [Faults] one. *)
  let faults =
    match env.network with
    | Lossless -> None
    | Faults f -> Some f
    | Chaos _ ->
        invalid_arg
          "Sim.run_flat: a Chaos network needs the hardened runner \
           (Fault.sim_run)"
  in
  let telemetry = env.telemetry in
  (* The flight recorder rides on the telemetry.  A round's slot of the
     staging window is appended after the round marker at the barrier:
     the crash pre-pass stages its downs/restarts before any step, so the
     serialized stream shows them first, then all steps/sends in node
     order — exactly what the reference loop emits. *)
  let rcd = Option.bind telemetry Telemetry.recorder in
  let rec_on = Option.is_some rcd in
  let n = Graph.n g in
  let m = Graph.m g in
  let max_rounds =
    match max_rounds with Some r -> r | None -> 10_000 + (200 * n)
  in
  (* Built on the first staged round: round 0 when recording, else
     [window_from], which a run that quiesces earlier never reaches. *)
  let window = ref [||] in
  let window_from = max_rounds - postmortem_window in
  (* The current round's slot, and whether this round stages its sends.
     [rb] is only read while [staging] holds. *)
  let rb = ref (Recorder.buf_make ()) in
  let staging = ref false in
  let csr = Graph.csr g in
  let views =
    Array.init n (fun node -> { node; n; nbrs = Graph.adj g node })
  in
  let states = Array.map fp.fp_init views in
  let budget = Dsf_util.Bitsize.congest_budget ~n in
  let edge_bits = Array.make (2 * m) (-1) in
  (* Swapped as whole arrays at each barrier (see the delivery below). *)
  let inboxes = ref (Array.init n (fun _ -> mbuf_make ())) in
  let stage = ref (Array.init n (fun _ -> mbuf_make ())) in
  let done_flag = Array.map fp.fp_is_done states in
  let done_count = ref 0 in
  Array.iter (fun d -> if d then incr done_count) done_flag;
  let messages = ref 0 in
  let total_bits = ref 0 in
  let max_edge_round_bits = ref 0 in
  let budget_violations = ref 0 in
  let dropped = ref 0 in
  let duplicated = ref 0 in
  let round = ref 0 in
  let quiescent = ref false in
  let current_stats () =
    {
      rounds = !round;
      messages = !messages;
      total_bits = !total_bits;
      max_edge_round_bits = !max_edge_round_bits;
      budget_violations = !budget_violations;
      dropped = !dropped;
      duplicated = !duplicated;
      retransmissions = 0;
    }
  in
  (* Per-round counters and candidate lists, reset every round. *)
  let stepped = ref 0 and delivered = ref 0 in
  let sent_any = ref false in
  let cur_src = ref (-1) in (* node being stepped, read by [emit] *)
  let touched = ibuf_make () in (* CSR positions charged this round *)
  let undone = ibuf_make () and recip = ibuf_make () in
  let sanitize = env.sanitize in
  let violation ~kind ~node ~detail =
    raise
      (Sanitizer_violation
         { sv_kind = kind; sv_round = !round; sv_node = node; sv_detail = detail })
  in
  (* [snap.(v)]: structural hash of [states.(v)] at the last barrier;
     [written.(v)]: round of the last sanctioned write (step or
     crash-restart).  Both are private to the sanitizer. *)
  let snap = if sanitize then Array.map state_hash states else [||] in
  let written = if sanitize then Array.make n (-1) else [||] in
  (* [quiet.(v)]: v's last lossless step read no mail and sent nothing. *)
  let quiet = if sanitize then Array.make n false else [||] in
  (* [listed.(v) = r]: v is on round [r]'s recipient list. *)
  let listed = if sanitize then Array.make n (-1) else [||] in
  let was_down = if Option.is_some faults then Array.make n false else [||] in
  (* The active list [act.(0 .. n_act - 1)], ascending: the nodes that
     step this round.  It is exactly the up nodes with mail or not done
     (see sim.mli), maintained incrementally, so idle rounds cost
     O(active) not O(n).  [rcp] is the barrier's recipient scratch and
     the array the crash pre-pass rebuilds the list into (the two then
     swap); [cand_stamp.(v) = r] marks [v] as entered into round
     [r + 1]'s list at barrier [r]. *)
  let act = ref (Array.make (Int.max 1 n) 0) in
  let rcp = ref (Array.make (Int.max 1 n) 0) in
  let n_act = ref 0 in
  let cand_stamp = Array.make n (-1) in
  for v = 0 to n - 1 do
    if not done_flag.(v) then begin
      !act.(!n_act) <- v;
      incr n_act
    end
  done;
  let deliver src dst msg =
    let mb = !stage.(dst) in
    if mb.mlen = 0 then ibuf_push recip dst;
    mbuf_push mb src msg
  in
  let emit ~dst msg =
    let src = !cur_src in
    (* In sanitize mode [cur_src] is reset to -1 after every step, so a
       stashed emit closure fired outside its step is caught here. *)
    if sanitize && src < 0 then
      violation ~kind:"emit-outside-step" ~node:dst
        ~detail:
          (Printf.sprintf
             "emit to node %d with no step in progress (escaped emit \
              closure?)"
             dst);
    if dst < 0 || dst >= n then
      invalid_arg "Sim.run_flat: message to nonexistent node";
    let p = Graph.pos csr ~src ~dst in
    if p < 0 then invalid_arg "Sim.run_flat: message to non-neighbor";
    sent_any := true;
    incr messages;
    let bits = fp.fp_msg_bits msg in
    total_bits := !total_bits + bits;
    let prev = edge_bits.(p) in
    if prev < 0 then begin
      ibuf_push touched p;
      edge_bits.(p) <- bits
    end
    else edge_bits.(p) <- prev + bits;
    match faults with
    | None ->
        if !staging then Recorder.ev_send !rb ~src ~dst ~bits ~fate:1;
        deliver src dst msg
    | Some f -> (
        match f.on_send ~round:!round ~src ~dst with
        | Deliver ->
            if !staging then Recorder.ev_send !rb ~src ~dst ~bits ~fate:1;
            deliver src dst msg
        | Drop ->
            if !staging then Recorder.ev_send !rb ~src ~dst ~bits ~fate:0;
            incr dropped
        | Replicate k ->
            if !staging then Recorder.ev_send !rb ~src ~dst ~bits ~fate:k;
            for _ = 1 to k do
              deliver src dst msg
            done;
            duplicated := !duplicated + (k - 1))
  in
  let set_done v dn =
    if dn <> done_flag.(v) then begin
      done_flag.(v) <- dn;
      done_count := !done_count + if dn then 1 else -1
    end
  in
  let step_node v =
    let ib = !inboxes.(v) in
    let mail = ib.mlen and sent0 = !messages in
    incr stepped;
    delivered := !delivered + mail;
    (* Mail-consuming steps only: the same sanctioned-write site the
       node-locality sanitizer stamps, and the one step event every engine
       agrees on (the reference loop also steps idle done nodes). *)
    if rec_on && mail > 0 then Recorder.ev_step !rb v;
    cur_src := v;
    let st = states.(v) in
    let st' = fp.fp_step views.(v) ~round:!round st ~inbox:ib ~emit in
    ib.mlen <- 0;
    (* In-place protocols return the state they were given; skipping the
       store spares a write-barriered store per step. *)
    if st' != st then states.(v) <- st';
    if sanitize then begin
      written.(v) <- !round;
      quiet.(v) <- mail = 0 && !messages = sent0 && Option.is_none faults;
      (* Arm the emit-outside-step check until the next step begins. *)
      cur_src := -1
    end;
    let dn = fp.fp_is_done st' in
    set_done v dn;
    if not dn then ibuf_push undone v
  in
  while not !quiescent do
    if !round >= max_rounds then begin
      let snapshot = current_stats () in
      finish env snapshot;
      abort_run ~round:!round ~snapshot !window
    end;
    staging := rec_on || !round >= window_from;
    if !staging then begin
      if Array.length !window = 0 then window := window_make ();
      rb := !window.(!round mod postmortem_window);
      Recorder.buf_clear !rb
    end;
    let bits0 = !total_bits in
    stepped := 0;
    delivered := 0;
    sent_any := false;
    (* The crash pre-pass walks every node and the active list together,
       both ascending, and rebuilds the list: down nodes lose their mail
       and leave it, and nodes back up restart from a fresh initial state
       and join it unless that state is done (a restarted node with mail
       is on it already). *)
    (match faults with
    | None -> ()
    | Some f ->
        let a = !act and b = !rcp and i = ref 0 and k = ref 0 in
        for v = 0 to n - 1 do
          let listed = !i < !n_act && a.(!i) = v in
          if listed then incr i;
          if f.down ~round:!round ~node:v then begin
            if rec_on then Recorder.ev_down !rb v;
            (* Mail delivered to a crashed node is lost. *)
            let ib = !inboxes.(v) in
            if ib.mlen > 0 then begin
              dropped := !dropped + ib.mlen;
              ib.mlen <- 0
            end;
            was_down.(v) <- true
          end
          else begin
            let restarts = was_down.(v) in
            if restarts then begin
              (* First round back up: restart from a fresh initial state. *)
              if rec_on then Recorder.ev_restart !rb v;
              was_down.(v) <- false;
              states.(v) <- fp.fp_init views.(v);
              if sanitize then written.(v) <- !round;
              set_done v (fp.fp_is_done states.(v))
            end;
            if listed || (restarts && not done_flag.(v)) then begin
              b.(!k) <- v;
              incr k
            end
          end
        done;
        n_act := !k;
        act := b;
        rcp := a);
    let a = !act in
    for i = 0 to !n_act - 1 do
      step_node a.(i)
    done;
    (match rcd with
    | Some r ->
        Recorder.round r !round;
        Recorder.append r !rb
    | None -> ());
    for i = 0 to touched.ilen - 1 do
      let p = touched.ia.(i) in
      let bits = edge_bits.(p) in
      if bits > !max_edge_round_bits then max_edge_round_bits := bits;
      if bits > budget then incr budget_violations;
      edge_bits.(p) <- -1
    done;
    touched.ilen <- 0;
    (* Node-locality oracle: between barriers a node's state may change
       only through its own step (or crash-restart).  A node not written
       this round whose structural hash moved was mutated from another
       node's step — the aliasing the static domain-race rule cannot see.
       Stepped nodes refresh their snapshot.  The inbox sweep checks an
       engine invariant: every message delivered at the previous barrier
       was consumed by a step this round (crashed nodes have their mail
       dropped above). *)
    if sanitize then begin
      for v = 0 to n - 1 do
        if written.(v) = !round then begin
          let h = state_hash states.(v) in
          (* An idle step: quiet, and the state did not change. *)
          if quiet.(v) && h = snap.(v) then
            Option.iter
              (fun t ->
                Dsf_util.Metrics.incr (Telemetry.metrics t) "sim/idle_steps" 1)
              telemetry;
          snap.(v) <- h
        end
        else begin
          let h = state_hash states.(v) in
          if h <> snap.(v) then
            violation ~kind:"idle-state-write" ~node:v
              ~detail:
                (Printf.sprintf
                   "state of node %d changed this round but the node was \
                    not stepped (structural hash %d -> %d): another node's \
                    step wrote through an aliased state"
                   v snap.(v) h)
        end
      done;
      for v = 0 to n - 1 do
        if !inboxes.(v).mlen > 0 then
          violation ~kind:"undelivered-inbox" ~node:v
            ~detail:
              (Printf.sprintf
                 "%d message(s) delivered to node %d at the previous \
                  barrier were never consumed by a step"
                 !inboxes.(v).mlen v)
      done;
      (* Arena hygiene, checked before delivery: every staged slot with
         mail must be on the recipient list.  After the swap a stray slot
         would become the inbox of a node that may never be scheduled to
         read it. *)
      for i = 0 to recip.ilen - 1 do
        listed.(recip.ia.(i)) <- !round
      done;
      for dst = 0 to n - 1 do
        if !stage.(dst).mlen > 0 && listed.(dst) <> !round then
          violation ~kind:"arena-leak" ~node:dst
            ~detail:
              (Printf.sprintf
                 "%d message(s) staged for node %d outside the recipient \
                  list; no step would ever read them"
                 !stage.(dst).mlen dst)
      done
    end;
    (* Deliver staged mail by swapping the two mailbox arrays: every inbox
       is empty here (consumed by its node's step this round, or dropped
       with its crashed node: the sanitizer's undelivered-inbox check), so
       the old inboxes become the next round's empty staging slots. *)
    let ib = !inboxes in
    inboxes := !stage;
    stage := ib;
    (* Collect next round's active list: the still-undone nodes (already
       ascending, since nodes step in order) and the mail recipients.  All
       undone nodes are stamped before any recipient is examined, so none
       is entered twice.  A dense round (recipients at least n / 8) rebuilds
       the list by one ascending scan of the stamps; a sparse one sorts
       the unstamped recipients and merges them with the undone list. *)
    for i = 0 to undone.ilen - 1 do
      cand_stamp.(undone.ia.(i)) <- !round
    done;
    if 8 * recip.ilen >= n then begin
      for i = 0 to recip.ilen - 1 do
        cand_stamp.(recip.ia.(i)) <- !round
      done;
      let a = !act and k = ref 0 in
      for v = 0 to n - 1 do
        if cand_stamp.(v) = !round then begin
          a.(!k) <- v;
          incr k
        end
      done;
      n_act := !k
    end
    else begin
      let r = !rcp and nrcp = ref 0 in
      for i = 0 to recip.ilen - 1 do
        let dst = recip.ia.(i) in
        if cand_stamp.(dst) <> !round then begin
          cand_stamp.(dst) <- !round;
          r.(!nrcp) <- dst;
          incr nrcp
        end
      done;
      sort_int_prefix r !nrcp;
      n_act := merge_sorted undone.ia undone.ilen r !nrcp !act
    end;
    recip.ilen <- 0;
    undone.ilen <- 0;
    (match telemetry with
    | Some t ->
        Telemetry.sim_round t ~stepped:!stepped ~delivered:!delivered
          ~bits:(!total_bits - bits0)
    | None -> ());
    incr round;
    let halted = match halt with Some f -> f states | None -> false in
    quiescent := halted || ((!done_count = n) && not !sent_any)
  done;
  let final = current_stats () in
  finish env final;
  states, final

(* The production entry point.  The [use_reference_engine] shim reroutes
   fault-free runs to the seed loop here and nowhere else, which is how
   the differential suites drive whole algorithms through the oracle. *)
let run_flat ?max_rounds ?halt ?(env = default_env) g fp =
  match env.network with
  | Lossless when !use_reference_engine ->
      run_reference ?max_rounds ?halt ~env g fp
  | Lossless | Faults _ | Chaos _ -> flat_engine ?max_rounds ?halt ~env g fp

let pp_stats ppf s =
  Format.fprintf ppf
    "rounds=%d messages=%d bits=%d max-edge-round-bits=%d violations=%d"
    s.rounds s.messages s.total_bits s.max_edge_round_bits s.budget_violations;
  if s.dropped > 0 || s.duplicated > 0 || s.retransmissions > 0 then
    Format.fprintf ppf " dropped=%d duplicated=%d retransmissions=%d" s.dropped
      s.duplicated s.retransmissions

(* Senders among [msgs] with their (message, bit) totals, busiest first;
   ties break on ascending node id so hash-fold order never reaches the
   printed ranking. *)
let rank_senders (msgs : (int * int * int) list) =
  let per_node = Hashtbl.create 8 in
  List.iter
    (fun (src, _, bits) ->
      let c, b = Option.value ~default:(0, 0) (Hashtbl.find_opt per_node src) in
      Hashtbl.replace per_node src (c + 1, b + bits))
    msgs;
  Hashtbl.fold (fun v cb acc -> (v, cb) :: acc) per_node []
  |> List.sort (fun (va, (ca, _)) (vb, (cb, _)) ->
         let c = Int.compare cb ca in
         if c <> 0 then c else Int.compare va vb)

let top_senders = 6

let pp_top_senders ppf ranked =
  List.iteri
    (fun i (v, (c, b)) ->
      if i < top_senders then Format.fprintf ppf " [%d: %d msg/%d bits]" v c b)
    ranked;
  if List.length ranked > top_senders then Format.fprintf ppf " ..."

let pp_abort ppf a =
  Format.fprintf ppf "@[<v>no quiescence after %d rounds (%a)@," a.at_round
    pp_stats a.snapshot;
  if a.snapshot.budget_violations > 0 then
    Format.fprintf ppf
      "budget breached %d time(s); worst edge-round carried %d bits@,"
      a.snapshot.budget_violations a.snapshot.max_edge_round_bits;
  (* Who was still talking: the window-wide ranking puts the node whose
     timer never stops firing first. *)
  let window = List.length a.recent in
  (match rank_senders (List.concat_map snd a.recent) with
  | [] -> Format.fprintf ppf "no traffic in the last %d rounds@," window
  | ranked ->
      Format.fprintf ppf "senders over the last %d rounds:%a@," window
        pp_top_senders ranked);
  List.iter
    (fun (r, msgs) ->
      let ranked = rank_senders msgs in
      Format.fprintf ppf "  round %d: %d msgs/%d bits from %d nodes%a@," r
        (List.length msgs)
        (List.fold_left (fun acc (_, _, bits) -> acc + bits) 0 msgs)
        (List.length ranked) pp_top_senders ranked)
    a.recent;
  Format.fprintf ppf "@]"

let () =
  Printexc.register_printer (function
    | Round_limit a -> Some (Format.asprintf "Sim.Round_limit:@ %a" pp_abort a)
    | _ -> None)
