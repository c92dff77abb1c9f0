(* Chaos smoke for CI: every stock protocol, hardened and run under a
   fixed drop/duplication plan, must reproduce its lossless final states
   in-process.  bin/ci.sh runs this on every change and any divergence
   exits nonzero.

   [soak] is the crash-recovery counterpart at CI scale: a seeded
   plan-class x protocol x jobs matrix at n=1024 where every leg runs
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
  let check name proto =
    let lossless, base = Sim.run g proto in
    let hardened, stats = Fault.run_hardened ~plan g proto in
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
  let bfs = check "bfs" (Dsf_congest.Bfs.protocol ~root:0) in
  let bf =
    check "bellman-ford"
      (Dsf_congest.Bellman_ford.protocol g ~sources:[ 0, 0; 7, 2 ])
  in
  let exch = check "exchange" (Dsf_congest.Exchange.protocol ~payload_bits:9) in
  let leader = check "leader" (Dsf_congest.Leader.protocol g) in
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
   so each entry closes over its own comparison). *)
type soak_leg = {
  sname : string;
  run :
    'a.
    jobs:int ->
    chaos:Fault.chaos ->
    (masked:bool -> retrans:int -> dropped:int -> 'a) ->
    'a;
}

let soak () =
  let n = 1024 in
  Format.printf
    "=== chaos soak: plan class x protocol x jobs, crash recovery at \
     n=%d ===@."
    n;
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
  let mk sname proto =
    (* Lossless baseline once per protocol; every hardened leg must
       reproduce it exactly. *)
    let lossless, _ = Sim.run g proto in
    {
      sname;
      run =
        (fun ~jobs ~chaos k ->
          let states, stats =
            Fault.sim_run ~max_rounds ~jobs ~chaos
              ~recovery:(Fault.immutable ()) g proto
          in
          k ~masked:(states = lossless) ~retrans:stats.Sim.retransmissions
            ~dropped:stats.Sim.dropped);
    }
  in
  let protocols =
    [
      mk "bfs" (Dsf_congest.Bfs.protocol ~root:0);
      mk "bellman-ford"
        (Dsf_congest.Bellman_ford.protocol g ~sources:[ 0, 0; n / 2, 2 ]);
      mk "exchange" (Dsf_congest.Exchange.protocol ~payload_bits:9);
      mk "leader" (Dsf_congest.Leader.protocol g);
    ]
  in
  let engines = [ "jobs 1", 1; "jobs 4", 4 ] in
  let failures = ref 0 in
  List.iter
    (fun (cname, plan) ->
      let chaos = Fault.chaos plan in
      List.iter
        (fun leg ->
          List.iter
            (fun (ename, jobs) ->
              match
                leg.run ~jobs ~chaos
                  (fun ~masked ~retrans ~dropped ->
                    Format.printf
                      "%-9s %-14s %-8s %-8s retrans %6d, dropped %6d@."
                      cname leg.sname ename
                      (if masked then "masked" else "DIVERGED")
                      retrans dropped;
                    if not masked then incr failures)
              with
              | () -> ()
              | exception Sim.Round_limit a ->
                  Format.eprintf
                    "chaos soak: %s/%s/%s hit the round limit@.%a@." cname
                    leg.sname ename (Dsf_congest.Trace.pp_postmortem ?recorder:None) a;
                  incr failures)
            engines)
        protocols)
    classes;
  if !failures = 0 then
    Format.printf "chaos soak: all %d legs recovered to lossless states@."
      (List.length classes * List.length protocols * List.length engines)
  else begin
    Format.eprintf "chaos soak: %d legs diverged@." !failures;
    exit 1
  end
