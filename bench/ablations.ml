(* Ablation experiments: each isolates one design choice DESIGN.md calls
   out and measures what it buys.  A1 = pipelining, A2 = repetition
   amplification, A3 = forest-level sharing, A4 = the ε knob, A6 = the
   hardened runner's retransmission overhead, E12 = the Lemma 3.4 consistency
   check (Ω(s) even at D = 2). *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance
module Exact = Dsf_graph.Exact
module Ledger = Dsf_congest.Ledger
module Recorder = Dsf_congest.Recorder
module Stats = Dsf_util.Stats
module Rng = Dsf_util.Rng
module Pool = Dsf_util.Pool

let header title claim =
  Format.printf "@.=== %s ===@.question: %s@." title claim

(* Prints the verdict line and hands the verdict back, so [run_all] can
   count the failures. *)
let verdict name ok =
  Format.printf "--> %s: %s@." name (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------- A1 *)

let a1 () =
  header "A1 (pipelining ablation)"
    "what does the Lemma 4.14 / Section 5 pipelining buy over one-at-a-time collection?";
  Format.printf "%8s %8s %18s %18s %8s@." "depth" "items" "pipelined rounds"
    "sequential rounds" "speedup";
  let ok = ref true in
  List.iter
    (fun (depth, nitems) ->
      let g = Gen.path (depth + 1) in
      let tree = Dsf_congest.Bfs.build g ~root:0 in
      let items v = if v = depth then List.init nitems Fun.id else [] in
      let bits _ = 16 in
      let got_p, sp =
        Dsf_congest.Sim.measure (fun env ->
            Dsf_congest.Tree_ops.upcast ~env g ~tree ~items ~bits)
      in
      let got_s, ss =
        Dsf_congest.Sim.measure (fun env ->
            Dsf_congest.Tree_ops.upcast_sequential ~env g ~tree ~items ~bits)
      in
      assert (List.sort compare got_p = List.sort compare got_s);
      let speedup =
        float_of_int ss.Dsf_congest.Sim.rounds
        /. float_of_int sp.Dsf_congest.Sim.rounds
      in
      (* Pipelined ~ depth + items; sequential ~ depth * items. *)
      if
        sp.Dsf_congest.Sim.rounds > depth + nitems + 5
        || ss.Dsf_congest.Sim.rounds < (depth * (nitems - 1)) + 1
      then ok := false;
      Format.printf "%8d %8d %18d %18d %8.1f@." depth nitems
        sp.Dsf_congest.Sim.rounds ss.Dsf_congest.Sim.rounds speedup)
    [ 16, 16; 32, 32; 64, 16; 16, 64 ];
  verdict "A1" !ok

(* ------------------------------------------------------------------- A2 *)

let a2 ~jobs () =
  header "A2 (repetition amplification)"
    "how much does re-running the randomized first stage improve the solution (Markov amplification)?";
  Format.printf "%6s %14s %14s %14s@." "reps" "mean ratio" "max ratio"
    "mean rounds";
  (* Instance construction (exact-OPT DP per seed) and each reps-row's
     10-instance sweep fan out on the domain pool, in input order. *)
  let instances =
    Pool.map_chunked ~jobs
      (fun seed ->
        let r = Rng.create seed in
        let g = Gen.random_connected r ~n:30 ~extra_edges:25 ~max_w:10 in
        let labels = Gen.random_labels r ~n:30 ~t:8 ~k:3 in
        let inst = Instance.make_ic g labels in
        inst, Exact.steiner_forest_weight inst)
      (Array.init 10 (fun i -> 2000 + i))
  in
  let means = ref [] in
  List.iter
    (fun reps ->
      let ratios, rounds =
        List.split
          (Array.to_list
             (Pool.map_chunked ~jobs
                (fun (i, (inst, opt)) ->
                  let res =
                    Dsf_core.Rand_dsf.run ~repetitions:reps
                      ~rng:(Rng.create (3000 + i))
                      inst
                  in
                  ( float_of_int res.Dsf_core.Rand_dsf.weight /. float_of_int opt,
                    float_of_int (Ledger.total res.Dsf_core.Rand_dsf.ledger) ))
                (Array.mapi (fun i inst -> i, inst) instances)))
      in
      let _, hi = Stats.min_max ratios in
      means := Stats.mean ratios :: !means;
      Format.printf "%6d %14.3f %14.3f %14.0f@." reps (Stats.mean ratios) hi
        (Stats.mean rounds))
    [ 1; 3; 6 ];
  (* More repetitions should not hurt the mean (same per-rep seeds). *)
  let ok = match !means with [ m6; _; m1 ] -> m6 <= m1 +. 0.05 | _ -> false in
  verdict "A2" ok

(* ------------------------------------------------------------------- A3 *)

let a3 () =
  header "A3 (forest sharing)"
    "when does solving the components jointly (Steiner FOREST) beat per-component Steiner trees?";
  Format.printf "%6s %12s %16s %10s@." "seed" "joint (SF)" "per-comp (KMB)"
    "savings";
  let ok = ref true in
  List.iter
    (fun seed ->
      let r = Rng.create seed in
      (* Expensive backbone between clusters: components that all cross it
         should share the crossing. *)
      let g =
        Gen.clustered r ~clusters:3 ~cluster_size:12 ~intra_extra:10
          ~bridges:2 ~intra_w:3 ~bridge_w:40
      in
      let n = Graph.n g in
      (* Each component has one terminal in cluster 0 and one in cluster 2:
         all must cross both bridges. *)
      let k = 4 in
      let labels = Array.make n (-1) in
      for j = 0 to k - 1 do
        labels.(Rng.int r 12) <- j;
        let v = ref ((2 * 12) + Rng.int r 12) in
        while labels.(!v) >= 0 do
          v := (2 * 12) + Rng.int r 12
        done;
        labels.(!v) <- j
      done;
      (* Re-draw cluster-0 terminals that collided. *)
      for j = 0 to k - 1 do
        if not (Array.exists (fun l -> l = j) (Array.sub labels 0 12)) then begin
          let v = ref (Rng.int r 12) in
          while labels.(!v) >= 0 do
            v := Rng.int r 12
          done;
          labels.(!v) <- j
        end
      done;
      let inst = Instance.make_ic g labels in
      let joint = Dsf_core.Det_dsf.run inst in
      let separate =
        List.fold_left
          (fun acc (_, terms) ->
            acc
            + (Dsf_baseline.Steiner_tree.run g ~terminals:terms)
                .Dsf_baseline.Steiner_tree.weight)
          0 (Instance.components inst)
      in
      let savings =
        1.0
        -. (float_of_int joint.Dsf_core.Det_dsf.weight /. float_of_int separate)
      in
      if savings < -0.02 then ok := false;
      Format.printf "%6d %12d %16d %9.0f%%@." seed
        joint.Dsf_core.Det_dsf.weight separate (100. *. savings))
    [ 1; 2; 3; 4; 5 ];
  Format.printf
    "(per-component trees each pay the expensive bridges; the forest shares them)@.";
  verdict "A3" !ok

(* ------------------------------------------------------------------- A4 *)

let a4 () =
  header "A4 (the eps knob)"
    "Det_sublinear trades approximation for rounds: growth phases ~1/eps, quality ~2+eps";
  Format.printf "%8s %10s %14s %14s %12s@." "eps" "W/OPT" "growth phases"
    "merge phases" "rounds";
  let r = Rng.create 4242 in
  let g = Gen.random_connected r ~n:36 ~extra_edges:30 ~max_w:10 in
  let labels = Gen.random_labels r ~n:36 ~t:8 ~k:3 in
  let inst = Instance.make_ic g labels in
  let opt = Exact.steiner_forest_weight inst in
  let phases = ref [] in
  List.iter
    (fun (en, ed) ->
      let res = Dsf_core.Det_sublinear.run ~eps_num:en ~eps_den:ed inst in
      phases := res.Dsf_core.Det_sublinear.growth_phases :: !phases;
      Format.printf "%8.2f %10.3f %14d %14d %12d@."
        (float_of_int en /. float_of_int ed)
        (float_of_int res.Dsf_core.Det_sublinear.weight /. float_of_int opt)
        res.Dsf_core.Det_sublinear.growth_phases
        res.Dsf_core.Det_sublinear.merge_phase_count
        (Ledger.total res.Dsf_core.Det_sublinear.ledger))
    [ 1, 1; 1, 2; 1, 4; 1, 8 ];
  let ok =
    match !phases with
    | [ p8; p4; p2; p1 ] -> p8 > p4 && p4 > p2 && p2 > p1
    | _ -> false
  in
  verdict "A4" ok

(* ------------------------------------------------------------------ E12 *)

let e12 () =
  header "E12 (Lemma 3.4 consistency)"
    "with t=2, k=1 and D=2, rounds still grow ~linearly in s (no algorithm can dodge the Omega~(s) bound for s <= sqrt n)";
  Format.printf "%6s %4s %14s@." "s" "D" "Det_dsf rounds";
  let pts =
    List.map
      (fun s ->
        let inst = Dsf_lower_bound.Gadgets.st_hard ~s ~rho:3 in
        let d = Dsf_graph.Paths.diameter_unweighted inst.Instance.graph in
        let res = Dsf_core.Det_dsf.run inst in
        assert (res.Dsf_core.Det_dsf.weight = s);
        let rounds = Ledger.total res.Dsf_core.Det_dsf.ledger in
        Format.printf "%6d %4d %14d@." s d rounds;
        float_of_int s, float_of_int rounds)
      [ 16; 32; 64; 128 ]
  in
  (* A linear fit, because the additive setup constant skews log-log
     slopes at small s: rounds = a*s + c with a ~ 1 is the claim. *)
  let slope, intercept = Stats.linear_fit pts in
  Format.printf
    "linear fit: rounds = %.2f*s + %.1f (consistent with Omega~(s))@." slope
    intercept;
  verdict "E12" (slope >= 0.5)

(* ------------------------------------------------------------------- A5 *)

(* A5 tallies traffic from the [Send] events of a per-run flight
   recorder into task-local arrays, so the three sizes fan out on the
   domain pool like every other sweep. *)
let a5 ~jobs () =
  header "A5 (node congestion)"
    "does any node become a traffic hotspot?  max per-node traffic should stay within polylog of the average";
  Format.printf "%6s %12s %12s %14s@." "n" "messages" "avg/node"
    "hottest node";
  let rows =
    Pool.map_chunked ~jobs
      (fun n ->
        let r = Rng.create (1400 + n) in
        let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:10 in
        let labels = Gen.random_labels r ~n ~t:12 ~k:4 in
        let inst = Instance.make_ic g labels in
        let recorder = Recorder.create ~now:0 () in
        let res =
          Dsf_core.Rand_dsf.run
            ~telemetry:(Dsf_congest.Telemetry.create ~recorder ())
            ~repetitions:1 ~rng:(Rng.create n) inst
        in
        let per_node = Array.make n 0 in
        let messages = ref 0 and total_bits = ref 0 in
        let log = Recorder.to_log recorder in
        List.iter
          (function
            | Recorder.Send { src; dst; bits; _ } ->
                incr messages;
                total_bits := !total_bits + bits;
                per_node.(src) <- per_node.(src) + bits;
                per_node.(dst) <- per_node.(dst) + bits
            | _ -> ())
          (Recorder.log_events log);
        let feasible =
          Instance.is_feasible inst res.Dsf_core.Rand_dsf.solution
        in
        n, !messages, !total_bits, per_node, feasible)
      [| 40; 80; 160 |]
  in
  let ok = ref true in
  Array.iter
    (fun (n, messages, total_bits, per_node, feasible) ->
      if not feasible then ok := false;
      let avg = 2. *. float_of_int total_bits /. float_of_int n in
      let hottest = Array.fold_left max 0 per_node in
      (* Hotspot factor bounded by ~log^2 n: the virtual-tree root and BFS
         root concentrate traffic, but only polylogarithmically. *)
      let logn = log (float_of_int n) /. log 2. in
      if float_of_int hottest > 12. *. logn *. avg then ok := false;
      Format.printf "%6d %12d %12.0f %14d@." n messages avg hottest)
    rows;
  verdict "A5" !ok

(* ------------------------------------------------------------------- A6 *)

let a6 ~jobs () =
  header "A6 (hardening overhead vs drop probability)"
    "what do the sequence numbers, acks and retransmissions of a hardened run cost as the network gets lossier?";
  Format.printf "%8s %10s %10s %10s %10s %10s %8s@." "drop p" "rounds"
    "x rounds" "messages" "x msgs" "retrans" "masked";
  let r = Rng.create 4646 in
  let g = Gen.random_connected r ~n:28 ~extra_edges:24 ~max_w:8 in
  let proto = Dsf_congest.Leader.protocol g in
  let lossless, base = Dsf_congest.Sim.run_flat g proto in
  (* The plan's PRF makes every point deterministic, so the sweep fans
     out on the pool and still prints in p order. *)
  let rows =
    Pool.map_chunked ~jobs
      (fun p ->
        let plan =
          if p = 0.0 then Dsf_congest.Fault.empty
          else
            Dsf_congest.Fault.plan ~drop:p ~duplicate:(p /. 2.)
              ~seed:(4600 + int_of_float (p *. 100.))
              ()
        in
        let states, stats =
          Dsf_congest.Fault.sim_run
            ~env:
              {
                Dsf_congest.Sim.default_env with
                network = Dsf_congest.Sim.Chaos plan;
              }
            g
            proto
        in
        p, states, stats)
      [| 0.0; 0.05; 0.1; 0.2; 0.3 |]
  in
  let ok = ref true in
  let max_p_retrans = ref 0 in
  Array.iter
    (fun (p, states, (stats : Dsf_congest.Sim.stats)) ->
      let masked = states = lossless in
      if not masked then ok := false;
      if p >= 0.29 then max_p_retrans := stats.Dsf_congest.Sim.retransmissions;
      Format.printf "%8.2f %10d %10.1f %10d %10.1f %10d %8s@." p
        stats.Dsf_congest.Sim.rounds
        (float_of_int stats.Dsf_congest.Sim.rounds
        /. float_of_int base.Dsf_congest.Sim.rounds)
        stats.Dsf_congest.Sim.messages
        (float_of_int stats.Dsf_congest.Sim.messages
        /. float_of_int base.Dsf_congest.Sim.messages)
        stats.Dsf_congest.Sim.retransmissions
        (if masked then "yes" else "NO"))
    rows;
  Format.printf
    "lossless %d rounds; total across the sweep %d simulated rounds@."
    base.Dsf_congest.Sim.rounds
    (Array.fold_left
       (fun acc (_, _, (stats : Dsf_congest.Sim.stats)) ->
         acc + stats.Dsf_congest.Sim.rounds)
       base.Dsf_congest.Sim.rounds rows);
  (* PASS = every plan fully masked AND lossiness visibly costs resends. *)
  verdict "A6" (!ok && !max_p_retrans > 0)

(* ------------------------------------------------------------------ E13 *)

let e13 ~jobs () =
  header "E13 (related work: MST is Theta~(D + sqrt n))"
    "the GKP-style MST (fragments + pipelined filter) scales ~sqrt n while the naive pipelined MST scales ~n";
  Format.printf "%6s %6s %12s %14s %12s@." "n" "D" "GKP rounds"
    "pipelined rounds" "fragments";
  let pts_gkp = ref [] and pts_plain = ref [] in
  let exact = ref true in
  (* Both MSTs per size on the pool; the n=400 point dominates, so this
     sweep mostly buys overlap of the smaller sizes with it. *)
  let rows =
    Pool.map_chunked ~jobs
      (fun n ->
        let r = Rng.create (1500 + n) in
        let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:40 in
        let gkp = Dsf_baseline.Mst_gkp.run g in
        let plain = Dsf_baseline.Mst_distributed.run g in
        let d = Dsf_graph.Paths.diameter_unweighted g in
        n, g, gkp, plain, d)
      [| 64; 144; 256; 400 |]
  in
  Array.iter
    (fun (n, g, gkp, plain, d) ->
      if
        gkp.Dsf_baseline.Mst_gkp.weight <> Dsf_graph.Mst.weight g
        || plain.Dsf_baseline.Mst_distributed.weight <> Dsf_graph.Mst.weight g
      then exact := false;
      let gr = Ledger.total gkp.Dsf_baseline.Mst_gkp.ledger in
      let pr = Ledger.total plain.Dsf_baseline.Mst_distributed.ledger in
      Format.printf "%6d %6d %12d %14d %12d@." n d gr pr
        gkp.Dsf_baseline.Mst_gkp.fragments_after_phase1;
      pts_gkp := (float_of_int n, float_of_int gr) :: !pts_gkp;
      pts_plain := (float_of_int n, float_of_int pr) :: !pts_plain)
    rows;
  let sg = Stats.loglog_slope !pts_gkp and sp = Stats.loglog_slope !pts_plain in
  Format.printf
    "log-log slope rounds-vs-n: GKP=%.2f (~0.5 expected) pipelined=%.2f (~1 expected); both exact=%b@."
    sg sp !exact;
  verdict "E13" (!exact && sg < 0.75 && sp > 0.85)

(* Runs every experiment in order and returns how many verdicts
   FAILed. *)
let run_all ~jobs () =
  List.fold_left
    (fun failed experiment -> if experiment () then failed else failed + 1)
    0
    [ a1; a2 ~jobs; a3; a4; a5 ~jobs; a6 ~jobs; e12; e13 ~jobs ]
