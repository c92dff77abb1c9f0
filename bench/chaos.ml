(* Chaos smoke for CI: every stock protocol, hardened and run under a
   fixed drop/duplication plan, must reproduce its lossless final states
   in-process.  The protocols are the native flat ports the solvers run,
   so the smoke hardens exactly the code of a lossless solve.  bin/ci.sh
   runs this on every change and any divergence exits nonzero.

   [soak] is the crash-recovery counterpart at CI scale: a seeded
   plan-class x protocol matrix at n=1024 where every leg runs
   hardened with a checkpointed-recovery contract and must land on the
   lossless final states.  A round-limit abort prints the structured
   post-mortem before failing, so a retransmit livelock in CI is
   diagnosable from the log alone. *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Sim = Dsf_congest.Sim
module Fault = Dsf_congest.Fault

let run () =
  Format.printf
    "=== chaos smoke: hardened = lossless under a fixed drop plan ===@.";
  let r = Dsf_util.Rng.create 99 in
  let g = Gen.random_connected r ~n:24 ~extra_edges:20 ~max_w:8 in
  let plan = Fault.plan ~drop:0.15 ~duplicate:0.1 ~seed:4242 () in
  let check name fp =
    let lossless, base = Sim.run_flat g fp in
    let hardened, stats =
      Fault.sim_run
        ~env:{ Sim.default_env with network = Sim.Chaos plan }
        g fp
    in
    let masked = lossless = hardened in
    Format.printf "%-14s %-8s rounds %4d -> %4d, retrans %5d, dropped %5d@."
      name
      (if masked then "masked" else "DIVERGED")
      base.Sim.rounds stats.Sim.rounds stats.Sim.retransmissions
      stats.Sim.dropped;
    masked
  in
  (* Explicit lets: list literals evaluate right-to-left, which would
     scramble the printed order. *)
  let bfs =
    check "bfs" (Dsf_congest.Bfs.flat_protocol ~n:(Graph.n g) ~root:0)
  in
  let bf =
    check "bellman-ford"
      (Option.get
         (Dsf_congest.Bellman_ford.flat_protocol g ~sources:[ 0, 0; 7, 2 ]))
  in
  let exch =
    check "exchange" (Dsf_congest.Exchange.flat_protocol ~payload_bits:9)
  in
  let leader =
    check "leader" (Sim.flat_of_protocol (Dsf_congest.Leader.protocol g))
  in
  let results = [ bfs; bf; exch; leader ] in
  if List.for_all Fun.id results then
    Format.printf "chaos smoke: all protocols masked@."
  else begin
    Format.eprintf
      "chaos smoke: a hardened run diverged from its lossless baseline@.";
    exit 1
  end

(* A protocol under soak, with its lossless baseline erased to a
   comparable value (final states are existentially typed per protocol,
   so each entry closes over its own comparison): [run plan] is whether
   the hardened run masked the plan, and its stats. *)
type soak_leg = { sname : string; run : Fault.plan -> bool * Sim.stats }

let soak () =
  let n = 1024 in
  Format.printf
    "=== chaos soak: plan class x protocol, crash recovery at n=%d ===@." n;
  let r = Dsf_util.Rng.create 4242 in
  let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:8 in
  (* Early, overlapping fault windows on real edges/nodes so every class
     actually bites before the protocols quiesce. *)
  let edge i = let e = Graph.edge g (i mod Graph.m g) in e.Graph.u, e.Graph.v in
  let outages =
    List.init 6 (fun i ->
        let u, v = edge (137 * (i + 1)) in
        u, v, 1 + i, 4 + (2 * i))
  in
  let crashes =
    List.init 5 (fun i -> (211 * (i + 1)) mod n, 2 + i, 5 + (2 * i))
  in
  let classes =
    [
      "drop+dup", Fault.plan ~drop:0.08 ~duplicate:0.04 ~seed:11 ();
      "outage", Fault.plan ~drop:0.02 ~link_down:outages ~seed:12 ();
      "crash", Fault.plan ~drop:0.02 ~crashes ~seed:13 ();
      "full", Fault.chaos_plan ~seed:14 g;
    ]
  in
  let max_rounds = 200_000 in
  (* [mk sname go]: [go env] runs the protocol and returns what must
     survive the faults, with the run's stats.  Lossless baseline once per
     protocol; every hardened leg must reproduce it exactly. *)
  let mk sname go =
    let lossless, _ = go Sim.default_env in
    {
      sname;
      run =
        (fun plan ->
          let got, stats =
            go { Sim.default_env with network = Sim.Chaos plan }
          in
          got = lossless, stats);
    }
  in
  (* The ports with immediate (int or immutable) states checkpoint with
     the identity snapshot. *)
  let port sname fp =
    mk sname (fun env ->
        Fault.sim_run ~max_rounds ~env ~recovery:(Fault.immutable ()) g fp)
  in
  let protocols =
    [
      port "bfs" (Dsf_congest.Bfs.flat_protocol ~n ~root:0);
      (* Bellman-Ford's port keeps a mutable state, so it runs through its
         entry point, which supplies the deep-copying snapshot. *)
      mk "bellman-ford" (fun env ->
          let r, stats =
            Dsf_congest.Bellman_ford.run ~max_rounds ~env g
              ~sources:[ 0, 0; n / 2, 2 ]
          in
          Dsf_congest.Bellman_ford.(r.dist, r.src_of, r.parent, r.hops), stats);
      port "exchange" (Dsf_congest.Exchange.flat_protocol ~payload_bits:9);
      port "leader" (Sim.flat_of_protocol (Dsf_congest.Leader.protocol g));
    ]
  in
  let failures = ref 0 in
  List.iter
    (fun (cname, plan) ->
      List.iter
        (fun leg ->
          match leg.run plan with
          | masked, stats ->
              Format.printf "%-9s %-14s %-8s retrans %6d, dropped %6d@." cname
                leg.sname
                (if masked then "masked" else "DIVERGED")
                stats.Sim.retransmissions stats.Sim.dropped;
              if not masked then incr failures
          | exception Sim.Round_limit a ->
              Format.eprintf "chaos soak: %s/%s hit the round limit@.%a@."
                cname leg.sname Sim.pp_abort a;
              incr failures)
        protocols)
    classes;
  if !failures = 0 then
    Format.printf "chaos soak: all %d legs recovered to lossless states@."
      (List.length classes * List.length protocols)
  else begin
    Format.eprintf "chaos soak: %d legs diverged@." !failures;
    exit 1
  end
