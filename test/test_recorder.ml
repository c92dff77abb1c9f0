(* Flight recorder: serialization round-trips, engine transparency, the
   cross-engine byte-identity contract, and golden causal
   queries on the pinned Figure-1 gadget.

   The byte-identity suite is the recorder's core promise: the very same
   protocol recorded on the flat engine (through the list-protocol
   adapter Classic.to_flat and natively) and on Sim.run_reference must
   serialize to the very same dsf-flightlog bytes — steps are only
   recorded for mail-consuming nodes (causally inert empty steps would
   differ between the reference loop, which steps everyone, and the flat
   engine), and the flat engine stages a round's crash windows before
   its steps and sends. *)

open Dsf_graph
open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* A run environment that records into [r]: the recorder rides on a
   telemetry, the way `dsf_cli solve --record` attaches it. *)
let recording ?(network = Sim.Lossless) r =
  let tel = Telemetry.create ~clock:(fun () -> 0L) ~recorder:r () in
  { Sim.default_env with telemetry = Some tel; network }

let random_graph seed =
  let r = Dsf_util.Rng.create seed in
  let n = 8 + Dsf_util.Rng.int r 20 in
  let extra = Dsf_util.Rng.int r (2 * n) in
  let max_w = 1 + Dsf_util.Rng.int r 12 in
  Gen.random_connected r ~n ~extra_edges:extra ~max_w

(* ------------------------------------------------------- serialization *)

let test_roundtrip () =
  let r = Recorder.create ~now:0 () in
  Recorder.meta_add r "n" 5;
  Recorder.meta_add r "D" 2;
  Recorder.meta_add r "t" 3;
  Recorder.span_open r "phase";
  let b = Recorder.buf_make () in
  Recorder.ev_step b 4;
  Recorder.ev_send b ~src:4 ~dst:0 ~bits:7 ~fate:1;
  Recorder.ev_send b ~src:4 ~dst:1 ~bits:1_000_000 ~fate:0;
  Recorder.ev_down b 2;
  Recorder.ev_restart b 2;
  Recorder.round r 0;
  Recorder.append r b;
  (* The buffer keeps its records after the append: the engines read a
     post-mortem's sends back from it. *)
  check
    Alcotest.(list (triple int int int))
    "buf_sends after append"
    [ 4, 0, 7; 4, 1, 1_000_000 ]
    (Recorder.buf_sends b);
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
        (Recorder.log_events log = expect);
      check Alcotest.bool "to_log reads the same log in memory" true
        (Recorder.to_log r = log)

(* A merged child lands after the parent's own events, every record
   intact and every span name re-interned into the parent's table (the
   child interned "trial" as id 0, which the parent gave "setup"); the
   child's metadata is dropped. *)
let test_merge_into () =
  let dst = Recorder.create ~now:0 () in
  Recorder.meta_add dst "n" 4;
  Recorder.span_open dst "setup";
  Recorder.span_close dst "setup";
  let child = Recorder.create ~now:7 () in
  Recorder.meta_add child "n" 9;
  Recorder.span_open child "trial";
  let b = Recorder.buf_make () in
  Recorder.ev_step b 1;
  Recorder.ev_send b ~src:1 ~dst:2 ~bits:5 ~fate:2;
  Recorder.round child 0;
  Recorder.append child b;
  Recorder.span_open child "setup";
  Recorder.span_close child "setup";
  Recorder.span_close child "trial";
  Recorder.recovery child ~retransmissions:1 ~restores:0 ~checkpoint_bits:3;
  Recorder.merge_into ~dst child;
  check Alcotest.int "event count" 10 (Recorder.event_count dst);
  match Recorder.parse (Recorder.to_string dst) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
      check Alcotest.(list (pair string int)) "parent meta only"
        [ "captured_unix_s", 0; "n", 4 ]
        (Recorder.log_meta log);
      let expect : Recorder.event list =
        [
          Span_open "setup";
          Span_close "setup";
          Span_open "trial";
          Round 0;
          Step 1;
          Send { src = 1; dst = 2; bits = 5; fate = 2 };
          Span_open "setup";
          Span_close "setup";
          Span_close "trial";
          Recovery { retransmissions = 1; restores = 0; checkpoint_bits = 3 };
        ]
      in
      check Alcotest.bool "events appended in order" true
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
  Recorder.append r b;
  let s = Recorder.to_string r in
  (match Recorder.parse (String.sub s 0 (String.length s - 1)) with
  | Ok _ -> Alcotest.fail "truncated log accepted"
  | Error _ -> ());
  (* Forged counts: each is larger than the bytes that follow, so it must
     be rejected as corrupt before it sizes an allocation (2^55 is an
     8-byte varint; 8 bytes of 0xff then 0x7f overflow into -1). *)
  let magic = String.sub s 0 (String.index s '\n' + 1) in
  let huge = "\x80\x80\x80\x80\x80\x80\x80\x40" in
  let negative = String.make 8 '\xff' ^ "\x7f" in
  List.iter
    (fun (what, body) ->
      match Recorder.parse (magic ^ body) with
      | Ok _ -> Alcotest.failf "%s: forged count accepted" what
      | Error e ->
          Alcotest.(check bool)
            (what ^ ": reported as corrupt") true
            (String.starts_with ~prefix:"corrupt flightlog: " e))
    [
      "ints 2^55", "\x00\x00" ^ huge ^ "\x00";
      "names 2^55", "\x00" ^ huge ^ "\x00";
      "meta 2^55", huge ^ "\x00";
      "string 2^55", "\x01" ^ huge ^ "k\x00";
      "negative ints", "\x00\x00" ^ negative;
    ]

(* A read_file error names the path exactly once — the OS error for a
   missing file already carries it, a parse error does not. *)
let test_read_file_names_path_once () =
  let occurrences path msg =
    let pl = String.length path in
    let count = ref 0 in
    for i = 0 to String.length msg - pl do
      if String.sub msg i pl = path then incr count
    done;
    !count
  in
  let expect_error what path =
    match Recorder.read_file path with
    | Ok _ -> Alcotest.failf "%s: read_file accepted %s" what path
    | Error msg ->
        Alcotest.(check bool)
          (what ^ ": starts with the path") true
          (String.starts_with ~prefix:(path ^ ": ") msg);
        Alcotest.(check int) (what ^ ": path named once") 1
          (occurrences path msg)
  in
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "dsf-no-such.flightlog" in
  expect_error "missing file" missing;
  let bad = Filename.temp_file "dsf-bad" ".flightlog" in
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      Out_channel.with_open_bin bad (fun oc ->
          Out_channel.output_string oc "not a flightlog");
      expect_error "malformed log" bad)

(* -------------------------------------------------------- transparency *)

(* A recorder only observes: states and stats of a recorded run must be
   bit-identical to the bare run, on all three engines. *)
let prop_recorder_transparent =
  QCheck.Test.make ~name:"a recorder never perturbs a run (all engines)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      (* The bare leg runs with no telemetry; the recorded leg adds a
         telemetry carrying [r]. *)
      let tapped recorder run =
        run
          (match recorder with
          | None -> Sim.default_env
          | Some r -> recording r)
      in
      let adapter recorder =
        tapped recorder (fun env -> Classic.run ~env g (Classic.Bfs.protocol ~root))
      in
      let reference recorder =
        tapped recorder (fun env ->
            Classic.run_reference ~env g (Classic.Bfs.protocol ~root))
      in
      let flat recorder =
        tapped recorder (fun env ->
            Sim.run_flat ~env g (Bfs.flat_protocol ~n ~root))
      in
      let rcd () = Some (Recorder.create ~now:0 ()) in
      adapter None = adapter (rcd ())
      && reference None = reference (rcd ())
      && flat None = flat (rcd ()))

(* ------------------------------------------------------- byte identity *)

let record_adapter ?network g ~root =
  let r = Recorder.create ~now:0 () in
  ignore (Classic.run ~env:(recording ?network r) g (Classic.Bfs.protocol ~root));
  Recorder.to_string r

let record_reference g ~root =
  let r = Recorder.create ~now:0 () in
  ignore (Classic.run_reference ~env:(recording r) g (Classic.Bfs.protocol ~root));
  Recorder.to_string r

let record_flat ?network g ~root =
  let n = Graph.n g in
  let r = Recorder.create ~now:0 () in
  ignore
    (Sim.run_flat ~env:(recording ?network r) g
       (Bfs.flat_protocol ~n ~root));
  Recorder.to_string r

let prop_log_engine_invariant =
  QCheck.Test.make
    ~name:"flightlog bytes: run = run_reference = run_flat"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let base = record_adapter g ~root in
      String.length base > 0
      && record_reference g ~root = base
      && record_flat g ~root = base)

(* Crash windows positioned well before the BFS wavefront arrives: the
   crashed nodes restart re-initialized long before any mail reaches
   them, so the protocol still quiesces on every engine while the log
   carries Down/Restart events — letting classic and flat be compared
   byte-for-byte on a faulted run. *)
let test_log_crash_classic_flat_identical () =
  let g = Gen.path 24 in
  let plan = Fault.plan ~crashes:[ 23, 1, 3; 12, 2, 3 ] ~seed:11 () in
  let faulted () = Sim.Faults (Fault.instantiate plan) in
  let base = record_adapter ~network:(faulted ()) g ~root:0 in
  (match Recorder.parse base with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
      let count p = List.length (List.filter p (Recorder.log_events log)) in
      check Alcotest.int "Down events" 3
        (count (function Recorder.Down _ -> true | _ -> false));
      check Alcotest.int "Restart events" 2
        (count (function Recorder.Restart _ -> true | _ -> false)));
  check Alcotest.bool "flat matches classic" true
    (record_flat ~network:(faulted ()) g ~root:0 = base)

(* Raw drops can wedge an unhardened protocol below quiescence; the run is
   capped and the abort swallowed, and only complete rounds are ever
   flushed.  The flat engine stages a round's crash windows, steps and
   sends in one buffer: the log must carry every send the run charged
   (dropped ones included: as many, with as many bits, as its stats
   count) in the global send order (sender ascending within a round),
   put each round's Down/Restart events ahead of its steps and sends,
   and leave the stats of the bare run untouched. *)
let prop_log_faulted_flat =
  QCheck.Test.make
    ~name:"flightlog: drops+crashes, sends = stats, crashes first"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      let plan =
        Fault.plan ~drop:0.2 ~crashes:[ seed mod n, 2, 3 ] ~seed:(seed + 1) ()
      in
      let tapped recorder =
        let network = Sim.Faults (Fault.instantiate plan) in
        let env =
          match recorder with
          | None -> { Sim.default_env with network }
          | Some r -> recording ~network r
        in
        match
          Sim.run_flat ~max_rounds:300 ~env g (Bfs.flat_protocol ~n ~root)
        with
        | _, stats -> stats
        | exception Sim.Round_limit a -> a.Sim.snapshot
      in
      let r = Recorder.create ~now:0 () in
      let stats = tapped (Some r) in
      match Recorder.parse (Recorder.to_string r) with
      | Error _ -> false
      | Ok log ->
          let events = Recorder.log_events log in
          let sends = Flight.sends_of_events events in
          (* Sender ascending within each round. *)
          let rec send_order last = function
            | [] -> true
            | Recorder.Round _ :: rest -> send_order (-1) rest
            | Recorder.Send { src; _ } :: rest ->
                src >= last && send_order src rest
            | _ :: rest -> send_order last rest
          in
          let rec crashes_first late = function
            | [] -> true
            | Recorder.Round _ :: rest -> crashes_first false rest
            | (Recorder.Step _ | Recorder.Send _) :: rest ->
                crashes_first true rest
            | (Recorder.Down _ | Recorder.Restart _) :: rest ->
                (not late) && crashes_first late rest
            | _ :: rest -> crashes_first late rest
          in
          sends <> []
          && List.length sends = stats.Sim.messages
          && List.fold_left (fun acc (_, _, b) -> acc + b) 0 sends
             = stats.Sim.total_bits
          && send_order (-1) events
          && crashes_first false events
          && tapped None = stats)

(* Telemetry spans land in the log too.  A span that closes before the
   first message, like the CLI's [paths.parameters] sweep, is in the log
   and the summary but not in the critical path's per-span rows — unless
   the log has no messages at all, like a centralized solver's. *)
let test_spans_in_log () =
  let g = Gen.path 32 in
  let n = Graph.n g in
  let r = Recorder.create ~now:0 () in
  let tel = Telemetry.create ~clock:(fun () -> 0L) ~recorder:r () in
  Telemetry.span tel "paths.parameters" ignore;
  Telemetry.span tel "bfs" (fun () ->
      ignore
        (Sim.run_flat
           ~env:{ Sim.default_env with telemetry = Some tel }
           g (Bfs.flat_protocol ~n ~root:0)));
  match Recorder.parse (Recorder.to_string r) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log ->
      let events = Recorder.log_events log in
      check Alcotest.bool "spans recorded" true
        (List.mem (Recorder.Span_open "bfs") events
        && List.mem (Recorder.Span_open "paths.parameters") events);
      let a = Recorder.analyze log in
      check Alcotest.bool "summary counts both span paths" true
        (contains (Format.asprintf "%a" Recorder.pp_summary a) "2 span path(s)");
      let critical = Format.asprintf "%a" Recorder.pp_critical_path a in
      check Alcotest.bool "critical path lists bfs only" true
        (contains critical "    bfs"
        && not (contains critical "paths.parameters"));
      let r = Recorder.create ~now:0 () in
      let tel = Telemetry.create ~clock:(fun () -> 0L) ~recorder:r () in
      Telemetry.span tel "paths.parameters" ignore;
      Telemetry.span tel "centralized" ignore;
      (match Recorder.parse (Recorder.to_string r) with
      | Error e -> Alcotest.failf "parse failed: %s" e
      | Ok log ->
          let critical =
            Format.asprintf "%a" Recorder.pp_critical_path
              (Recorder.analyze log)
          in
          check Alcotest.bool "no messages: every span listed" true
            (contains critical "    paths.parameters"
            && contains critical "    centralized"))

(* ------------------------------------------------------------ hot edges *)

(* The per-edge traffic report: a recorded Bellman-Ford on a 3-path,
   read back through the printed rows of [pp_hot_edges]. *)
let test_hot_edges () =
  let g = Gen.path 3 in
  let r = Recorder.create ~now:0 () in
  let _, stats =
    Sim.measure ~env:(recording r) (fun env -> Bellman_ford.sssp ~env g ~src:0)
  in
  let a =
    Recorder.analyze (Result.get_ok (Recorder.parse (Recorder.to_string r)))
  in
  let rows limit =
    Format.asprintf "%a" (Recorder.pp_hot_edges ~limit) a
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           Scanf.sscanf_opt line " %d -> %d bits=%d msgs=%d max_chain_depth=%d"
             (fun src dst bits msgs _ -> (src, dst), bits, msgs))
  in
  let all = rows max_int in
  check Alcotest.bool "edge 0->1 carried bits" true
    (List.exists (fun (e, bits, _) -> e = (0, 1) && bits > 0) all);
  check Alcotest.bool "ranked by bits desc, then (src, dst)" true
    (List.sort
       (fun (ea, ba, _) (eb, bb, _) ->
         let c = compare bb ba in
         if c <> 0 then c else compare ea eb)
       all
    = all);
  check Alcotest.bool "more edges than the limit" true (List.length all > 2);
  check Alcotest.bool "limit honoured" true
    (rows 2 = List.filteri (fun i _ -> i < 2) all);
  check Alcotest.int "messages add up to the run's stats"
    stats.Sim.messages
    (List.fold_left (fun acc (_, _, m) -> acc + m) 0 all);
  check Alcotest.int "bits add up to the run's stats" stats.Sim.total_bits
    (List.fold_left (fun acc (_, b, _) -> acc + b) 0 all)

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
    "weight=5 rounds=56 runs=11 depth=25" got

let test_golden_why () =
  let _, a = Lazy.force gadget_analysis in
  let out = Format.asprintf "%a" (Recorder.pp_why ~node:0 ?round:None) a in
  (* The backtrace's shape is pinned loosely — a step line for node 0, a
     delivery chain, and an origin — so inspector wording can evolve
     without re-pinning every byte, while a causality bug (wrong chain,
     empty chain) still fails. *)
  check Alcotest.bool "header pins the final state" true
    (contains out
       "why node 0 (as of global round 55): last state change at round 52, \
        causal depth 24");
  check Alcotest.bool "deepest hop pinned" true
    (contains out
       "r52    node 0 consumed 23-bit message from node 9 (sent r51, chain \
        depth 24)");
  check Alcotest.bool "chain reaches an origin step" true
    (contains out "origin: node 17 sent from its initial state (depth 0)")

let test_golden_critical_path () =
  let _, a = Lazy.force gadget_analysis in
  let out = Format.asprintf "%a" Recorder.pp_critical_path a in
  check Alcotest.bool "headline depth pinned" true
    (contains out "critical path: causal depth 25 over 56 global round(s), \
                   11 run(s)");
  check Alcotest.bool "deepest chain endpoint pinned" true
    (contains out "deepest chain ends at node 1, round 47");
  check Alcotest.bool "prints the paper bound" true
    (contains out "paper bound");
  check Alcotest.bool "span attribution covers the solve phases" true
    (List.for_all
       (fun affix -> contains out affix)
       [ "minimalize"; "setup"; "phase/broadcast"; "final" ])

(* ------------------------------------------------- det_small flight logs *)

(* The flight log `dsf_cli solve --record` writes for det_small.dsf,
   built the way the CLI builds it (instance metadata from the exact
   (D, WD, s) sweep, then the solve on the recorder's telemetry), with
   the capture timestamp at 0 so the bytes do not depend on the clock.
   The seed is the CLI's default --seed 1, which the randomized solvers
   draw from through one split. *)
let det_small_flightlog ?chaos_seed ~jobs algorithm =
  let r = Recorder.create ~now:0 () in
  let telemetry = Telemetry.create ~recorder:r () in
  let inst =
    match Io.parse_file "fixtures/det_small.dsf" with
    | Io.Ic inst -> inst
    | _ -> Alcotest.fail "det_small.dsf is not a DSF-IC file"
  in
  let g = inst.Instance.graph in
  let d, wd, s =
    Telemetry.span telemetry "paths.parameters" (fun () ->
        Paths.parameters ~jobs g)
  in
  List.iter
    (fun (key, v) -> if v >= 0 then Recorder.meta_add r key v)
    [
      "n", Graph.n g;
      "m", Graph.m g;
      "D", d;
      "WD", wd;
      "s", s;
      "t", Instance.terminal_count inst;
      "k", Instance.component_count inst;
      "seed", 1;
    ];
  let rng () = Dsf_util.Rng.split (Dsf_util.Rng.create 1) 1 in
  let algorithm =
    let open Dsf_core.Solver in
    match algorithm with
    | `Det -> Det
    | `Sublinear -> Det_sublinear { eps_num = 1; eps_den = 2 }
    | `Rand -> Rand { repetitions = 3; rng = rng () }
    | `Khan -> Khan_baseline { repetitions = 3; rng = rng () }
  in
  let chaos = Option.map (fun seed -> Fault.chaos_plan ~seed g) chaos_seed in
  ignore
    (Dsf_core.Solver.solve ~jobs ~telemetry ?chaos algorithm
       (Dsf_core.Solver.Ic inst));
  Recorder.to_string r

(* The five det_small logs (det at jobs 1 and hardened under chaos seed 5
   at jobs 2, sublinear, rand at jobs 2, khan) must keep the digest and
   length committed in fixtures/det_small.flightlogs.digest, so a
   refactor that moves a single recorded send, step or span fails here.
   A change meant to alter a log regenerates that file and says why. *)
let test_det_small_flightlogs () =
  let expected =
    In_channel.with_open_text "fixtures/det_small.flightlogs.digest"
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let leg name ?chaos_seed ~jobs algorithm =
    let log = det_small_flightlog ?chaos_seed ~jobs algorithm in
    Printf.sprintf "%s %s %d" name
      (Digest.to_hex (Digest.string log))
      (String.length log)
  in
  check
    Alcotest.(list string)
    "det_small flight logs" expected
    [
      leg "det_j1" ~jobs:1 `Det;
      leg "det_chaos5_j2" ~chaos_seed:5 ~jobs:2 `Det;
      leg "sublinear" ~jobs:1 `Sublinear;
      leg "rand_j2" ~jobs:2 `Rand;
      leg "khan" ~jobs:1 `Khan;
    ]

let suites =
  [
    ( "recorder",
      [
        Alcotest.test_case "binary round-trip" `Quick test_roundtrip;
        Alcotest.test_case "merge_into appends a child log" `Quick
          test_merge_into;
        Alcotest.test_case "negative meta rejected" `Quick
          test_negative_meta_rejected;
        Alcotest.test_case "corrupt log rejected" `Quick test_corrupt_rejected;
        Alcotest.test_case "read_file names the path once" `Quick
          test_read_file_names_path_once;
        qtest prop_recorder_transparent;
        qtest prop_log_engine_invariant;
        Alcotest.test_case "crash plan: classic = flat bytes" `Quick
          test_log_crash_classic_flat_identical;
        qtest prop_log_faulted_flat;
        Alcotest.test_case "spans in log" `Quick test_spans_in_log;
        Alcotest.test_case "hot edges" `Quick test_hot_edges;
        Alcotest.test_case "golden: gadget summary" `Quick test_golden_summary;
        Alcotest.test_case "golden: gadget --why" `Quick test_golden_why;
        Alcotest.test_case "golden: gadget --critical-path" `Quick
          test_golden_critical_path;
        Alcotest.test_case "det_small flight logs match their digests" `Quick
          test_det_small_flightlogs;
      ] );
  ]
