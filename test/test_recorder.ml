(* Flight recorder: serialization round-trips, engine transparency, the
   cross-engine / cross-jobs byte-identity contract, and golden causal
   queries on the pinned Figure-1 gadget.

   The byte-identity suite is the recorder's core promise: the very same
   protocol recorded through Sim.run, Sim.run_reference and Sim.run_flat
   (at any ?jobs) must serialize to the very same dsf-flightlog bytes —
   steps are only recorded for mail-consuming nodes (causally inert empty
   steps would differ between the reference loop, which steps everyone,
   and the flat engine), and the flat engine's per-domain staging
   buffers are flushed at the barrier in domain = node order. *)

open Dsf_graph
open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let random_graph seed =
  let r = Dsf_util.Rng.create seed in
  let n = 8 + Dsf_util.Rng.int r 20 in
  let extra = Dsf_util.Rng.int r (2 * n) in
  let max_w = 1 + Dsf_util.Rng.int r 12 in
  Gen.random_connected r ~n ~extra_edges:extra ~max_w

(* ------------------------------------------------------- serialization *)

let test_roundtrip () =
  let r = Recorder.create ~now:0 ~meta:[ "n", 5; "D", 2 ] () in
  Recorder.meta_add r "t" 3;
  Recorder.span_open r "phase";
  let b = Recorder.buf_make () in
  Recorder.ev_step b 4;
  Recorder.ev_send b ~src:4 ~dst:0 ~bits:7 ~fate:1;
  Recorder.ev_send b ~src:4 ~dst:1 ~bits:1_000_000 ~fate:0;
  Recorder.ev_down b 2;
  Recorder.ev_restart b 2;
  Recorder.round r 0;
  Recorder.flush r b;
  Recorder.span_close r "phase";
  Recorder.recovery r ~retransmissions:9 ~restores:1 ~checkpoint_bits:128;
  let s = Recorder.to_string r in
  match Recorder.parse s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
      check Alcotest.(list (pair string int)) "meta"
        [ "captured_unix_s", 0; "n", 5; "D", 2; "t", 3 ]
        (Recorder.log_meta log);
      check Alcotest.int "event count" 9 (Recorder.log_event_count log);
      let expect : Recorder.event list =
        [
          Span_open "phase";
          Round 0;
          Step 4;
          Send { src = 4; dst = 0; bits = 7; fate = 1 };
          Send { src = 4; dst = 1; bits = 1_000_000; fate = 0 };
          Down 2;
          Restart 2;
          Span_close "phase";
          Recovery { retransmissions = 9; restores = 1; checkpoint_bits = 128 };
        ]
      in
      check Alcotest.bool "events round-trip" true
        (Recorder.log_events log = expect)

let test_negative_meta_rejected () =
  let r = Recorder.create ~now:0 () in
  Alcotest.check_raises "negative meta value"
    (Invalid_argument "Recorder.meta_add: negative value -1 for \"bad\"")
    (fun () -> Recorder.meta_add r "bad" (-1))

let test_corrupt_rejected () =
  (match Recorder.parse "not a flightlog" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  let r = Recorder.create ~now:0 () in
  let b = Recorder.buf_make () in
  Recorder.ev_send b ~src:1 ~dst:2 ~bits:3 ~fate:1;
  Recorder.round r 0;
  Recorder.flush r b;
  let s = Recorder.to_string r in
  match Recorder.parse (String.sub s 0 (String.length s - 1)) with
  | Ok _ -> Alcotest.fail "truncated log accepted"
  | Error _ -> ()

(* -------------------------------------------------------- transparency *)

(* A recorder only observes: states, stats and observer traces of a
   recorded run must be bit-identical to the bare run, on all three
   engines. *)
let prop_recorder_transparent =
  QCheck.Test.make ~name:"?recorder never perturbs a run (all engines)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      let adapter recorder =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let s, t = Sim.run ~observer ?recorder g (Bfs.protocol ~root) in
        s, t, List.rev !log
      in
      let reference recorder =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let s, t =
          Sim.run_reference ~observer ?recorder g (Bfs.protocol ~root)
        in
        s, t, List.rev !log
      in
      let flat recorder =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let s, t =
          Sim.run_flat ~observer ?recorder g (Bfs.flat_protocol ~n ~root)
        in
        s, t, List.rev !log
      in
      let rcd () = Some (Recorder.create ~now:0 ()) in
      adapter None = adapter (rcd ())
      && reference None = reference (rcd ())
      && flat None = flat (rcd ()))

(* ------------------------------------------------------- byte identity *)

let record_adapter ?faults g ~root =
  let r = Recorder.create ~now:0 () in
  ignore (Sim.run ?faults ~recorder:r g (Bfs.protocol ~root));
  Recorder.to_string r

let record_reference g ~root =
  let r = Recorder.create ~now:0 () in
  ignore (Sim.run_reference ~recorder:r g (Bfs.protocol ~root));
  Recorder.to_string r

let record_flat ?faults ~jobs g ~root =
  let n = Graph.n g in
  let r = Recorder.create ~now:0 () in
  ignore (Sim.run_flat ?faults ~recorder:r ~jobs g (Bfs.flat_protocol ~n ~root));
  Recorder.to_string r

let prop_log_engine_invariant =
  QCheck.Test.make
    ~name:"flightlog bytes: run = run_reference = run_flat j1/j2/j4"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let base = record_adapter g ~root in
      String.length base > 0
      && record_reference g ~root = base
      && List.for_all
           (fun jobs -> record_flat ~jobs g ~root = base)
           [ 1; 2; 4 ])

(* Crash windows positioned well before the BFS wavefront arrives: the
   crashed nodes restart re-initialized long before any mail reaches
   them, so the protocol still quiesces on every engine while the log
   carries Down/Restart events — letting classic and flat be compared
   byte-for-byte on a faulted run. *)
let test_log_crash_classic_flat_identical () =
  let g = Gen.path 24 in
  let plan = Fault.plan ~crashes:[ 23, 1, 3; 12, 2, 3 ] ~seed:11 () in
  let base = record_adapter ~faults:(Fault.instantiate plan) g ~root:0 in
  (match Recorder.parse base with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
      let count p = List.length (List.filter p (Recorder.log_events log)) in
      check Alcotest.int "Down events" 3
        (count (function Recorder.Down _ -> true | _ -> false));
      check Alcotest.int "Restart events" 2
        (count (function Recorder.Restart _ -> true | _ -> false)));
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "flat jobs=%d matches classic" jobs)
        true
        (record_flat ~faults:(Fault.instantiate plan) ~jobs g ~root:0 = base))
    [ 1; 2; 4 ]

(* Raw drops can wedge an unhardened protocol below quiescence; the runs
   are capped and the abort swallowed — a Round_limit fires at the same
   deterministic round for every jobs, and only complete rounds are ever
   flushed, so the logs must still agree byte-for-byte. *)
let prop_log_jobs_invariant_faulted =
  QCheck.Test.make
    ~name:"flightlog bytes: drops+crashes, flat j1 = j2 = j4" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      let plan =
        Fault.plan ~drop:0.2 ~crashes:[ seed mod n, 2, 3 ] ~seed:(seed + 1) ()
      in
      let record jobs =
        let r = Recorder.create ~now:0 () in
        (try
           ignore
             (Sim.run_flat ~max_rounds:300 ~faults:(Fault.instantiate plan)
                ~recorder:r ~jobs g (Bfs.flat_protocol ~n ~root))
         with Sim.Round_limit _ -> ());
        Recorder.to_string r
      in
      let base = record 1 in
      String.length base > 0
      && List.for_all (fun jobs -> record jobs = base) [ 2; 4 ])

(* Telemetry spans land in the log too, and stay jobs-invariant: the
   span appenders are coordinator-only, outside the domain fan-out. *)
let test_spans_in_log_jobs_invariant () =
  let g = Gen.path 32 in
  let n = Graph.n g in
  let run jobs =
    let r = Recorder.create ~now:0 () in
    let tel = Telemetry.create ~clock:(fun () -> 0L) ~recorder:r () in
    Telemetry.span tel "bfs" (fun () ->
        ignore
          (Sim.run_flat ~telemetry:tel ~recorder:r ~jobs g
             (Bfs.flat_protocol ~n ~root:0)));
    Recorder.to_string r
  in
  let base = run 1 in
  (match Recorder.parse base with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
      check Alcotest.bool "span recorded" true
        (List.mem (Recorder.Span_open "bfs") (Recorder.log_events log)));
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "bytes identical at jobs=%d" jobs)
        true
        (run jobs = base))
    [ 2; 4 ]

(* --------------------------------------- golden queries (Figure 1 gadget) *)

(* The pinned set-disjointness gadget from the paper's Figure 1 (universe
   8, fixed member sets), solved end-to-end by det_dsf on the flat engine
   with the recorder attached the way `dsf_cli solve --record` attaches
   it.  The analysis numbers and the query renderings are part of the
   format's contract: a change here is a (deliberate) flightlog or
   inspector change. *)

let gadget_analysis =
  lazy
    (let universe = 8 in
     let a = Array.init universe (fun i -> i mod 2 = 0) in
     let b = Array.init universe (fun i -> i mod 3 = 0) in
     let gadget = Dsf_lower_bound.Gadgets.ic_gadget ~universe ~a ~b in
     let r = Recorder.create ~now:0 () in
     let tel = Telemetry.create ~clock:(fun () -> 0L) ~recorder:r () in
     let res =
       Dsf_core.Det_dsf.run ~telemetry:tel
         gadget.Dsf_lower_bound.Gadgets.ic
     in
     let inst = gadget.Dsf_lower_bound.Gadgets.ic in
     let n = Graph.n inst.Dsf_graph.Instance.graph in
     Recorder.meta_add r "n" n;
     Recorder.meta_add r "D" 2;
     Recorder.meta_add r "s" 4;
     Recorder.meta_add r "t" 4;
     (res, Recorder.analyze (Result.get_ok (Recorder.parse (Recorder.to_string r)))))

let test_golden_summary () =
  let res, a = Lazy.force gadget_analysis in
  let got =
    Printf.sprintf "weight=%d rounds=%d runs=%d depth=%d"
      res.Dsf_core.Det_dsf.weight (Recorder.total_rounds a)
      (Recorder.run_count a) (Recorder.max_depth a)
  in
  check Alcotest.string "gadget summary"
    "weight=5 rounds=61 runs=12 depth=25" got

let test_golden_why () =
  let _, a = Lazy.force gadget_analysis in
  let out = Format.asprintf "%a" (Recorder.pp_why ~node:0 ?round:None) a in
  (* The backtrace's shape is pinned loosely — a step line for node 0, a
     delivery chain, and an origin — so inspector wording can evolve
     without re-pinning every byte, while a causality bug (wrong chain,
     empty chain) still fails. *)
  check Alcotest.bool "header pins the final state" true
    (contains out
       "why node 0 (as of global round 60): last state change at round 57, \
        causal depth 24");
  check Alcotest.bool "deepest hop pinned" true
    (contains out
       "r57    node 0 consumed 23-bit message from node 9 (sent r56, chain \
        depth 24)");
  check Alcotest.bool "chain reaches an origin step" true
    (contains out "origin: node 17 sent from its initial state (depth 0)")

let test_golden_critical_path () =
  let _, a = Lazy.force gadget_analysis in
  let out = Format.asprintf "%a" Recorder.pp_critical_path a in
  check Alcotest.bool "headline depth pinned" true
    (contains out "critical path: causal depth 25 over 61 global round(s), \
                   12 run(s)");
  check Alcotest.bool "deepest chain endpoint pinned" true
    (contains out "deepest chain ends at node 1, round 52");
  check Alcotest.bool "prints the paper bound" true
    (contains out "paper bound");
  check Alcotest.bool "span attribution covers the solve phases" true
    (List.for_all
       (fun affix -> contains out affix)
       [ "minimalize"; "setup"; "phase/broadcast"; "final" ])

let suites =
  [
    ( "recorder",
      [
        Alcotest.test_case "binary round-trip" `Quick test_roundtrip;
        Alcotest.test_case "negative meta rejected" `Quick
          test_negative_meta_rejected;
        Alcotest.test_case "corrupt log rejected" `Quick test_corrupt_rejected;
        qtest prop_recorder_transparent;
        qtest prop_log_engine_invariant;
        Alcotest.test_case "crash plan: classic = flat bytes" `Quick
          test_log_crash_classic_flat_identical;
        qtest prop_log_jobs_invariant_faulted;
        Alcotest.test_case "spans in log, jobs-invariant" `Quick
          test_spans_in_log_jobs_invariant;
        Alcotest.test_case "golden: gadget summary" `Quick test_golden_summary;
        Alcotest.test_case "golden: gadget --why" `Quick test_golden_why;
        Alcotest.test_case "golden: gadget --critical-path" `Quick
          test_golden_critical_path;
      ] );
  ]
