(* Chaos differential suite: Fault.sim_run's hardening must make any
   maskable fault plan invisible — a hardened protocol on a lossy network
   reaches exactly the final states the raw protocol reaches on a lossless
   one.  With a [Fault.recoverable] contract that extends to
   crash-and-restart: a restarted node resumes from its checkpoint, so a
   crash window degrades into a finite outage the reliable layer rides
   out.  Also pins down what the RAW protocols do (and do not) guarantee
   under crash-and-restart plans, that an end-to-end det_dsf solve under a
   full chaos plan is bit-identical to the fault-free run (both engines,
   jobs 1, 2 and 4), and that round-limit aborts carry a usable
   post-mortem. *)

open Dsf_graph
open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* Hardened runs multiply round counts by the synchronizer overhead, so
   chaos graphs stay small. *)
let random_graph seed =
  let r = rng seed in
  let n = 6 + Dsf_util.Rng.int r 10 in
  let extra = Dsf_util.Rng.int r n in
  let max_w = 1 + Dsf_util.Rng.int r 8 in
  Gen.random_connected r ~n ~extra_edges:extra ~max_w

let random_drop_plan seed =
  let r = rng (seed lxor 0x5bd1e995) in
  (* drop in [0, 0.45], duplicate in [0, 0.3]: lossy enough to force
     retransmissions, tame enough to converge quickly. *)
  let drop = float_of_int (Dsf_util.Rng.int r 46) /. 100. in
  let duplicate = float_of_int (Dsf_util.Rng.int r 31) /. 100. in
  Fault.plan ~drop ~duplicate ~seed:(Dsf_util.Rng.int r 1_000_000) ()

(* Run environments: the hardened network under [plan] (what
   [Fault.sim_run] needs to harden a run) and raw, unhardened fault
   injection of [plan]. *)
let chaos_env plan = { Sim.default_env with network = Sim.Chaos plan }

let faults_env plan =
  { Sim.default_env with network = Sim.Faults (Fault.instantiate plan) }

(* [Fault.sim_run] of a list protocol. *)
let sim_run ?max_rounds ?recovery ~env g proto =
  Fault.sim_run ?max_rounds ?recovery ~env g (Sim.flat_of_protocol proto)

(* Raw lossless final states vs hardened final states under [plan]. *)
let masks_plan ?max_rounds g proto plan =
  let lossless, _ = Sim.run g proto in
  let hardened, _ = sim_run ?max_rounds ~env:(chaos_env plan) g proto in
  lossless = hardened

let prop_harden_bfs =
  QCheck.Test.make ~name:"harden masks drops (BFS)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* BFS parent choice is first-arrival — the synchronizer must
         reproduce the exact lossless timing, not just any BFS tree. *)
      masks_plan g (Classic.Bfs.protocol ~root) (random_drop_plan seed))

let prop_harden_bellman_ford =
  QCheck.Test.make ~name:"harden masks drops (Bellman-Ford)" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 1) in
      let k = 1 + Dsf_util.Rng.int r 3 in
      let sources =
        List.init k (fun _ -> Dsf_util.Rng.int r n, Dsf_util.Rng.int r 4)
      in
      masks_plan g (Bellman_ford.protocol g ~sources) (random_drop_plan seed))

let prop_harden_exchange_leader =
  QCheck.Test.make ~name:"harden masks drops (exchange / leader)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let plan = random_drop_plan (seed + 7) in
      masks_plan g (Classic.Exchange.protocol ~payload_bits:9) plan
      && masks_plan g (Leader.protocol g) plan)

let prop_harden_faultfree_identity =
  QCheck.Test.make ~name:"hardened fault-free run = lossless states"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let lossless, _ = Sim.run g (Classic.Bfs.protocol ~root) in
      let hardened, stats =
        sim_run ~env:(chaos_env Fault.empty) g (Classic.Bfs.protocol ~root)
      in
      lossless = hardened && stats.Sim.retransmissions = 0
      && stats.Sim.dropped = 0)

let prop_drops_cost_retransmissions =
  QCheck.Test.make ~name:"dropped payloads force retransmissions" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let plan = Fault.plan ~drop:0.3 ~seed () in
      let _, stats =
        sim_run ~env:(chaos_env plan) g (Leader.protocol g)
      in
      (* Some packet of the chatty leader flood is dropped with
         overwhelming probability at p = 0.3; each drop must eventually be
         covered by a resend. *)
      stats.Sim.dropped = 0 || stats.Sim.retransmissions > 0)

(* ------------------------------------------------ raw protocols + crashes *)

let test_exchange_crash_restart () =
  (* The raw exchange is self-stabilizing under crash-and-restart: a
     restarted node re-inits to "not sent" and simply re-sends.  Node [v]
     sleeps through rounds 0-1 and wakes at round 2; its neighbors' mail
     dies at its door, but every node still ends having sent exactly its
     own outbox once. *)
  let g = random_graph 4242 in
  let n = Graph.n g in
  let m = Graph.m g in
  let v = n / 2 in
  let plan = Fault.plan ~crashes:[ v, 0, 2 ] ~seed:1 () in
  let states, stats =
    Sim.run ~env:(faults_env plan) g (Classic.Exchange.protocol ~payload_bits:9)
  in
  Array.iteri
    (fun u sent ->
      Alcotest.(check bool) (Printf.sprintf "node %d sent" u) true sent)
    states;
  check Alcotest.int "messages = 2m (every outbox fired exactly once)"
    (2 * m) stats.Sim.messages;
  check Alcotest.int "dropped = deg v (mail at the crashed door)"
    (Array.length (Graph.adj g v))
    stats.Sim.dropped

let test_leader_crash_breaks_agreement () =
  (* A node that sleeps through the max-id wave quiesces on a stale
     leader: on the path 0-1-...-k, node 0 goes down exactly when the
     wave of k arrives (rounds k-1 and k) and the network settles before
     its scheduled restart.  The raw protocol does NOT mask this;
     [agreed] must surface the disagreement and [leader] must still
     report the true winner. *)
  let k = 8 in
  let g = Gen.path (k + 1) in
  let plan = Fault.plan ~crashes:[ 0, k - 1, k + 2 ] ~seed:1 () in
  let res = Leader.elect ~env:(faults_env plan) g in
  Alcotest.(check bool) "disagreement surfaced" false res.Leader.agreed;
  check Alcotest.int "true winner still reported" k res.Leader.leader

let test_leader_max_node_restart_reconverges () =
  (* Crashing the max-id node early is healed by the restart: it re-inits
     to its own id and re-floods, and its pre-crash wave already seeded
     the rest of the network. *)
  let k = 8 in
  let g = Gen.path (k + 1) in
  let plan = Fault.plan ~crashes:[ k, 1, 3 ] ~seed:1 () in
  let res = Leader.elect ~env:(faults_env plan) g in
  Alcotest.(check bool) "agreement restored" true res.Leader.agreed;
  check Alcotest.int "leader" k res.Leader.leader

(* ------------------------------------------- crash recovery (checkpoints) *)

let test_maskable_classifier () =
  let drops = Fault.plan ~drop:0.2 ~duplicate:0.1 ~seed:1 () in
  let outage = Fault.plan ~link_down:[ 0, 1, 2, 5 ] ~seed:1 () in
  let crash = Fault.plan ~crashes:[ 0, 2, 4 ] ~seed:1 () in
  Alcotest.(check bool) "drops maskable" true (Fault.maskable drops);
  Alcotest.(check bool) "drops maskable without recovery" true
    (Fault.maskable ~with_recovery:false drops);
  (* Finite outages are healed by capped-backoff retransmission alone,
     no recovery contract needed. *)
  Alcotest.(check bool) "outage maskable" true (Fault.maskable outage);
  Alcotest.(check bool) "outage maskable without recovery" true
    (Fault.maskable ~with_recovery:false outage);
  Alcotest.(check bool) "crash needs recovery" false (Fault.maskable crash);
  Alcotest.(check bool) "crash maskable with recovery" true
    (Fault.maskable ~with_recovery:true crash);
  Alcotest.(check bool) "chaos_plan maskable with recovery" true
    (Fault.maskable ~with_recovery:true
       (Fault.chaos_plan ~seed:3 (random_graph 3)))

let prop_recovery_masks_chaos_plans =
  (* The tentpole guarantee: a full chaos_plan — drops, duplications,
     finite link outages AND crash-restart windows — is invisible to a
     protocol hardened with a recoverable contract. *)
  QCheck.Test.make ~name:"recovery masks chaos plans (BFS / leader)"
    ~count:12
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let plan = Fault.chaos_plan ~seed g in
      let root = seed mod Graph.n g in
      let masks proto =
        let lossless, _ = Sim.run g proto in
        let hardened, _ =
          sim_run ~env:(chaos_env plan) ~recovery:(Fault.immutable ())
            g proto
        in
        lossless = hardened
      in
      masks (Classic.Bfs.protocol ~root) && masks (Leader.protocol g))

let test_leader_crash_recovery_reconverges () =
  (* The exact adversarial schedule that breaks the raw protocol above
     (node 0 sleeps through the max-id wave) is fully masked once the run
     is hardened with recovery: node 0 restarts from its checkpoint and
     the go-back-N machinery replays what the crash ate. *)
  let k = 8 in
  let g = Gen.path (k + 1) in
  let plan = Fault.plan ~crashes:[ 0, k - 1, k + 2 ] ~seed:1 () in
  let lossless, _ = Sim.run g (Leader.protocol g) in
  let hardened, _ =
    sim_run ~env:(chaos_env plan) ~recovery:(Fault.immutable ()) g
      (Leader.protocol g)
  in
  Alcotest.(check bool) "crash masked by recovery" true (lossless = hardened);
  (* Same guarantee through the chaos front door: [Leader.elect] on a
     [Chaos] network runs hardened-with-recovery and asserts agreement
     internally. *)
  let res = Leader.elect ~env:(chaos_env (Fault.chaos_plan ~seed:7 g)) g in
  Alcotest.(check bool) "elect under chaos agrees" true res.Leader.agreed;
  check Alcotest.int "elect under chaos: true winner" k res.Leader.leader

let test_recovery_stats_counted () =
  (* Recovery work is observable through Fault.sim_run's telemetry: a
     crash window inside the run shows up as one restore in the
     fault/restores counter, the same count as the recorder's Recovery
     event, plus resync rounds and checkpoint bits — and the inner states
     are still the lossless ones.  The env's ledger counts the hardened
     run's rounds exactly once. *)
  let k = 8 in
  let g = Gen.path (k + 1) in
  let plan = Fault.plan ~crashes:[ 0, 4, 7 ] ~seed:1 () in
  let proto = Leader.protocol g in
  let recorder, tel = Flight.telemetry () in
  let ledger = Ledger.create () in
  let env =
    { (chaos_env plan) with telemetry = Some tel; ledger = Some ledger }
  in
  let states, stats = sim_run ~env ~recovery:(Fault.immutable ()) g proto in
  let counter = Dsf_util.Metrics.counter_value (Telemetry.metrics tel) in
  check Alcotest.int "one restore" 1 (counter "fault/restores");
  Alcotest.(check bool) "resync rounds counted" true
    (counter "fault/recovery_rounds" > 0);
  Alcotest.(check bool) "checkpoint bits counted" true
    (counter "fault/checkpoint_bits" > 0);
  let recorded =
    List.filter_map
      (function Recorder.Recovery { restores; _ } -> Some restores | _ -> None)
      (Flight.events recorder)
  in
  check Alcotest.(list int) "fault/restores = the Recovery event" [ 1 ] recorded;
  let lossless, _ = Sim.run g proto in
  Alcotest.(check bool) "inner states lossless" true (states = lossless);
  check Alcotest.int "ledger counts the hardened run once" stats.Sim.rounds
    (Ledger.simulated ledger)

let test_hardened_units () =
  (* A drop-only hardened run spends retransmissions (packets) but no
     recovery rounds: its fault/recovery_rounds counter stays at zero
     while the packet and checkpoint-bit counts land in the metrics
     registry. *)
  let g = random_graph 31 in
  let tel = Telemetry.create ~clock:(fun () -> 0L) () in
  let env =
    { (chaos_env (Fault.plan ~drop:0.3 ~seed:808 ())) with
      telemetry = Some tel }
  in
  let _, stats =
    sim_run ~env ~recovery:(Fault.immutable ()) g (Leader.protocol g)
  in
  let span = Option.get (Telemetry.find tel [ "hardened" ]) in
  let metric = Dsf_util.Metrics.counter_value (Telemetry.metrics tel) in
  Alcotest.(check bool) "retransmissions > 0" true
    (span.Telemetry.retransmissions > 0);
  check Alcotest.int "span retransmissions = stats" stats.Sim.retransmissions
    span.Telemetry.retransmissions;
  check Alcotest.int "ledger_charged = 0" 0 span.Telemetry.ledger_charged;
  check Alcotest.int "fault/recovery_rounds counter" 0
    (metric "fault/recovery_rounds");
  check Alcotest.int "fault/retransmissions counter" stats.Sim.retransmissions
    (metric "fault/retransmissions");
  Alcotest.(check bool) "fault/checkpoint_bits counter" true
    (metric "fault/checkpoint_bits" > 0)

let test_engines_reject_chaos () =
  (* Hardening is Fault.sim_run's job: a Chaos env handed straight to an
     engine is a wiring bug and is rejected up front. *)
  let g = random_graph 5 in
  let env = chaos_env (Fault.plan ~drop:0.1 ~seed:1 ()) in
  let rejects name run =
    match run () with
    | _ -> Alcotest.failf "%s accepted a Chaos env" name
    | exception Invalid_argument _ -> ()
  in
  rejects "Sim.run" (fun () -> Sim.run ~env g (Classic.Bfs.protocol ~root:0));
  rejects "Sim.run_reference" (fun () ->
      Sim.run_reference ~env g (Classic.Bfs.protocol ~root:0));
  rejects "Sim.run_flat" (fun () ->
      ignore (Sim.run_flat ~env g (Bfs.flat_protocol ~n:(Graph.n g) ~root:0)))

let test_exchange_chaos_still_stabilizes () =
  (* The raw exchange's self-stabilization (test above) is not disturbed
     by the hardened path: under a full chaos plan every node still ends
     having sent, and the stats come back finite. *)
  let g = random_graph 777 in
  let stats =
    Exchange.all_neighbors ~env:(chaos_env (Fault.chaos_plan ~seed:9 g)) g
      ~payload_bits:9
  in
  Alcotest.(check bool) "positive traffic" true (stats.Sim.messages > 0)

(* ------------------------------------------- end-to-end det_dsf chaos *)

let test_det_dsf_chaos_differential () =
  (* The acceptance bullet: a complete det_dsf solve under a seeded
     maskable chaos plan (drops + duplicates + finite link-down +
     crash-restart-with-recovery) is bit-identical to the fault-free
     solve — solution, weight, dual, merge schedule, phase count — at
     jobs 1, 2 and 4.  Fault-free repeats at jobs 1 and 2 must match too:
     dsf_cli certifies the dual of the one run it prints instead of
     solving again.  Ledger round counts legitimately differ (the
     synchronizer pays for the faults), so they are excluded from the
     comparison. *)
  let r = rng 2024 in
  let g = Gen.random_connected r ~n:26 ~extra_edges:18 ~max_w:10 in
  let labels = Gen.spread_labels r g ~t:8 ~k:3 in
  let inst = Instance.make_ic g labels in
  let base = Dsf_core.Det_dsf.run inst in
  let chaos = Fault.chaos_plan ~seed:5 g in
  List.iter
    (fun (label, jobs, chaos) ->
      let c = Dsf_core.Det_dsf.run ~jobs ?chaos inst in
      Alcotest.(check bool)
        (label ^ ": solution identical")
        true
        (c.Dsf_core.Det_dsf.solution = base.Dsf_core.Det_dsf.solution);
      check Alcotest.int (label ^ ": weight") base.Dsf_core.Det_dsf.weight
        c.Dsf_core.Det_dsf.weight;
      Alcotest.(check bool)
        (label ^ ": dual identical")
        true
        (Dsf_core.Frac.compare c.Dsf_core.Det_dsf.dual
           base.Dsf_core.Det_dsf.dual
        = 0);
      Alcotest.(check bool)
        (label ^ ": merge schedule identical")
        true
        (c.Dsf_core.Det_dsf.merges = base.Dsf_core.Det_dsf.merges);
      check Alcotest.int
        (label ^ ": phase count")
        base.Dsf_core.Det_dsf.phase_count c.Dsf_core.Det_dsf.phase_count)
    [
      "fault-free jobs 1", 1, None;
      "fault-free jobs 2", 2, None;
      "chaos jobs 1", 1, Some chaos;
      "chaos jobs 2", 2, Some chaos;
      "chaos jobs 4", 4, Some chaos;
    ]

(* ----------------------------------------------------------- post-mortem *)

let test_crash_plan_not_masked_postmortem () =
  (* Hardening does NOT mask crash plans: a permanently dead neighbor eats
     payloads forever, the sender retransmits forever, and the run must
     abort with a structured, printable post-mortem. *)
  let g = Gen.path 4 in
  let plan = Fault.plan ~crashes:[ 0, 2, 1_000_000 ] ~seed:1 () in
  (* Node 1's last send to the dead node 0 goes out in round 2.  It is
     resent 3, 6, 12 and 24 rounds later, then every 32 rounds once the
     backoff has reached its cap: rounds 5, 11, 23, 47, 79, 111, ...  A
     limit of 112 puts the resend of round 111 inside the 8-round
     window. *)
  let max_rounds = 112 in
  match sim_run ~max_rounds ~env:(chaos_env plan) g (Leader.protocol g) with
  | _ -> Alcotest.fail "expected Round_limit"
  | exception Sim.Round_limit a ->
      check Alcotest.int "aborted at the limit" max_rounds a.Sim.at_round;
      check Alcotest.int "snapshot rounds" max_rounds a.Sim.snapshot.Sim.rounds;
      Alcotest.(check bool) "ring buffer non-empty" true (a.Sim.recent <> []);
      Alcotest.(check bool) "window bounded" true
        (List.length a.Sim.recent <= Sim.postmortem_window);
      (* The retransmit timers were still firing when the axe fell. *)
      Alcotest.(check bool) "someone was still talking" true
        (List.exists (fun (_, msgs) -> msgs <> []) a.Sim.recent);
      let rendered = Format.asprintf "%a" Sim.pp_abort a in
      let via_printexc = Printexc.to_string (Sim.Round_limit a) in
      Alcotest.(check bool) "registered exception printer" true
        (String.length via_printexc > String.length "Sim.Round_limit");
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "post-mortem has the header" true
        (contains rendered "no quiescence after 112 rounds");
      Alcotest.(check bool) "post-mortem ranks senders" true
        (contains rendered "senders over the last");
      (* Busiest sender first, ties on ascending node id, six at most —
         in the window-wide ranking and in each round's line alike. *)
      let ranked =
        Format.asprintf "%a" Sim.pp_abort
          {
            a with
            Sim.recent =
              [
                7, [ 3, 0, 4; 1, 0, 4; 3, 1, 4; 2, 0, 4 ];
                8, List.init 8 (fun v -> 7 - v, 0, 1);
              ];
          }
      in
      Alcotest.(check bool) "window ranking" true
        (contains ranked
           "senders over the last 2 rounds: [3: 3 msg/9 bits] [1: 2 msg/5 \
            bits] [2: 2 msg/5 bits] [0: 1 msg/1 bits] [4: 1 msg/1 bits] [5: 1 \
            msg/1 bits] ...");
      Alcotest.(check bool) "round ranking" true
        (contains ranked
           "round 7: 4 msgs/16 bits from 3 nodes [3: 2 msg/8 bits] [1: 1 \
            msg/4 bits] [2: 1 msg/4 bits]\n");
      Alcotest.(check bool) "round ranking capped" true
        (contains ranked
           "round 8: 8 msgs/8 bits from 8 nodes [0: 1 msg/1 bits] [1: 1 \
            msg/1 bits] [2: 1 msg/1 bits] [3: 1 msg/1 bits] [4: 1 msg/1 \
            bits] [5: 1 msg/1 bits] ...")

let suites =
  [
    ( "congest.chaos",
      [
        qtest prop_harden_bfs;
        qtest prop_harden_bellman_ford;
        qtest prop_harden_exchange_leader;
        qtest prop_harden_faultfree_identity;
        qtest prop_drops_cost_retransmissions;
        Alcotest.test_case "exchange under crash-restart" `Quick
          test_exchange_crash_restart;
        Alcotest.test_case "leader: crash breaks agreement" `Quick
          test_leader_crash_breaks_agreement;
        Alcotest.test_case "leader: max-node restart reconverges" `Quick
          test_leader_max_node_restart_reconverges;
        Alcotest.test_case "maskable classifier" `Quick
          test_maskable_classifier;
        qtest prop_recovery_masks_chaos_plans;
        Alcotest.test_case "leader: crash masked by recovery" `Quick
          test_leader_crash_recovery_reconverges;
        Alcotest.test_case "recovery work is counted" `Quick
          test_recovery_stats_counted;
        Alcotest.test_case "hardened run: packets and bits are not rounds"
          `Quick test_hardened_units;
        Alcotest.test_case "engines reject a Chaos env" `Quick
          test_engines_reject_chaos;
        Alcotest.test_case "exchange under chaos still stabilizes" `Quick
          test_exchange_chaos_still_stabilizes;
        Alcotest.test_case "det_dsf chaos differential (engines, jobs)"
          `Slow test_det_dsf_chaos_differential;
        Alcotest.test_case "crash plan aborts with post-mortem" `Quick
          test_crash_plan_not_masked_postmortem;
      ] );
  ]
