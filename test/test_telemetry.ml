(* The telemetry layer: golden renderings of every sink on a fully
   deterministic synthetic workload (injected counter clock), structural
   checks of span attribution on real algorithm runs, the pooled-merge
   bit-exactness property, and the regression that telemetry-off runs
   match seed behavior exactly.  Complements the one-branch differential
   in test_sim_equiv (telemetry on/off through both engines). *)

open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Advances 1ms per read: create consumes one tick for the epoch, every
   span open/close consumes one each — all timestamps are determined by
   call order alone. *)
let counter_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 1_000_000L;
    !t

let const_clock () = 0L

(* A hand-driven workload touching every recorded field: two occurrences
   of "alpha" (sibling merge), a nested "beta" carrying fault counters
   and a budget violation, engine rounds in both. *)
let synthetic () =
  let tel = Telemetry.create ~clock:(counter_clock ()) () in
  Telemetry.span tel "alpha" (fun () ->
      Telemetry.sim_round tel ~stepped:3 ~delivered:2 ~bits:10;
      Telemetry.sim_run tel ~rounds:4 ~messages:9 ~bits:40
        ~max_edge_round_bits:6 ~budget_violations:0 ~dropped:0 ~duplicated:0
        ~retransmissions:0;
      Telemetry.span tel "beta" (fun () ->
          Telemetry.sim_round tel ~stepped:1 ~delivered:1 ~bits:4;
          Telemetry.sim_run tel ~rounds:2 ~messages:3 ~bits:12
            ~max_edge_round_bits:4 ~budget_violations:1 ~dropped:2
            ~duplicated:1 ~retransmissions:5));
  Telemetry.span tel "alpha" (fun () -> ());
  tel

let golden name expected actual =
  if actual <> expected then begin
    let path =
      Filename.concat (Filename.get_temp_dir_name ()) ("dsf_golden_" ^ name)
    in
    let oc = open_out path in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "%s differs from golden (actual written to %s)" name path
  end

let golden_console =
  {golden|span tree (sim metrics inclusive of children):
  alpha                              count=2   wall=4.000ms rounds=6 msgs=12 bits=52 merb=6 violations=1 dropped=2 duplicated=1 retransmissions=5
    beta                             count=1   wall=1.000ms rounds=2 msgs=3 bits=12 merb=4 violations=1 dropped=2 duplicated=1 retransmissions=5
metrics:
  sim/bits_per_round               count=2 sum=14 min=4 max=10 [4..7]:1 [8..15]:1
  sim/delivered_per_round          count=2 sum=3 min=1 max=2 [1]:1 [2..3]:1
  sim/rounds                       2
  sim/runs                         2
  sim/stepped_per_round            count=2 sum=4 min=1 max=3 [1]:1 [2..3]:1|golden}

let golden_jsonl =
  {golden|{"type": "meta", "schema": "dsf-telemetry/1", "events": 3}
{"type": "span", "name": "beta", "tid": 0, "start_ns": 2000000, "dur_ns": 1000000, "rounds": 2, "bits": 12}
{"type": "span", "name": "alpha", "tid": 0, "start_ns": 1000000, "dur_ns": 3000000, "rounds": 4, "bits": 40}
{"type": "span", "name": "alpha", "tid": 0, "start_ns": 5000000, "dur_ns": 1000000, "rounds": 0, "bits": 0}
{"type": "profile", "path": "alpha", "count": 2, "wall_ns": 4000000, "rounds": 4, "messages": 9, "bits": 40, "max_edge_round_bits": 6, "budget_violations": 0, "dropped": 0, "duplicated": 0, "retransmissions": 0, "ledger_charged": 0}
{"type": "profile", "path": "alpha/beta", "count": 1, "wall_ns": 1000000, "rounds": 2, "messages": 3, "bits": 12, "max_edge_round_bits": 4, "budget_violations": 1, "dropped": 2, "duplicated": 1, "retransmissions": 5, "ledger_charged": 0}
{"type": "histogram", "name": "sim/bits_per_round", "count": 2, "sum": 14, "min": 4, "max": 10, "buckets": [[3, 1], [4, 1]]}
{"type": "histogram", "name": "sim/delivered_per_round", "count": 2, "sum": 3, "min": 1, "max": 2, "buckets": [[1, 1], [2, 1]]}
{"type": "counter", "name": "sim/rounds", "value": 2}
{"type": "counter", "name": "sim/runs", "value": 2}
{"type": "histogram", "name": "sim/stepped_per_round", "count": 2, "sum": 4, "min": 1, "max": 3, "buckets": [[1, 1], [2, 1]]}
|golden}

let golden_chrome =
  {golden|{"displayTimeUnit": "ms", "traceEvents": [
{"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "dsf"}},
{"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "main"}},
{"name": "beta", "ph": "X", "pid": 1, "tid": 0, "ts": 2000.000, "dur": 1000.000, "args": {"rounds": 2, "bits": 12}},
{"name": "alpha", "ph": "X", "pid": 1, "tid": 0, "ts": 1000.000, "dur": 3000.000, "args": {"rounds": 4, "bits": 40}},
{"name": "alpha", "ph": "X", "pid": 1, "tid": 0, "ts": 5000.000, "dur": 1000.000, "args": {"rounds": 0, "bits": 0}}
]}
|golden}

let test_golden_console () =
  golden "console" golden_console
    (Format.asprintf "%a" Telemetry.pp (synthetic ()))

let test_golden_jsonl () =
  golden "jsonl" golden_jsonl (Telemetry.to_jsonl_string (synthetic ()))

let test_golden_chrome () =
  golden "chrome" golden_chrome (Telemetry.to_chrome_string (synthetic ()))

(* ------------------------------------------------- span tree structure *)

let small_instance seed =
  let r = Dsf_util.Rng.create seed in
  let g = Dsf_graph.Gen.random_connected r ~n:24 ~extra_edges:18 ~max_w:8 in
  let labels = Dsf_graph.Gen.random_labels r ~n:24 ~t:6 ~k:2 in
  Dsf_graph.Instance.make_ic g labels

let test_det_phase_tree () =
  let inst = small_instance 11 in
  let tel = Telemetry.create ~clock:const_clock () in
  let r = Dsf_core.Det_dsf.run ~telemetry:tel inst in
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (String.concat "/" path) true
        (Option.is_some (Telemetry.find tel path)))
    [
      [ "minimalize" ];
      [ "setup" ];
      [ "phase" ];
      [ "phase"; "region_bf" ];
      [ "phase"; "filtered_upcast" ];
      [ "final"; "token_flood" ];
    ];
  (* The tree's engine totals must add up to the ledger's simulated rounds:
     every simulated subroutine ran inside some span. *)
  let rec total (s : Telemetry.span) =
    List.fold_left (fun acc c -> acc + total c) s.Telemetry.rounds
      s.Telemetry.children
  in
  let tree_rounds =
    List.fold_left (fun acc s -> acc + total s) 0 (Telemetry.root_spans tel)
  in
  check Alcotest.int "tree rounds = ledger simulated"
    (Ledger.simulated r.Dsf_core.Det_dsf.ledger)
    tree_rounds

let test_sublinear_phase_tree () =
  let inst = small_instance 12 in
  let tel = Telemetry.create ~clock:const_clock () in
  ignore (Dsf_core.Det_sublinear.run ~telemetry:tel ~eps_num:1 ~eps_den:2 inst);
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (String.concat "/" path) true
        (Option.is_some (Telemetry.find tel path)))
    [
      [ "setup" ];
      [ "growth"; "merge_phase"; "region_bf" ];
      [ "growth"; "activity" ];
      [ "final" ];
    ]

(* ------------------------------------------------ instrumentation coverage *)

(* One run environment reaches every simulated run, and the flight
   recorder riding on it sees every one of them: on one n=200 instance
   the log's Send count equals the telemetry's summed span messages and
   its Round markers equal the summed span rounds, for every distributed
   solver — Appendix F.3 pruning (sublinear), LE lists, the virtual
   tree's Voronoi and label routing (rand, khan) included, rand's pooled
   trials too (jobs 1 and 2).  And the three counts of simulated rounds
   agree: the ledger's (what dsf_cli prints), the telemetry's sim/rounds
   counter, and the log's Round markers.  Each simulated primitive alone,
   on the same graph, passes the same test through {!Sim.measure}, the
   one way to read a primitive's cost: its measured messages, bits and
   rounds are its log's Send events, summed Send bits and Round
   markers. *)
let test_instrumentation_coverage () =
  let r = Dsf_util.Rng.create 3 in
  let g = Dsf_graph.Gen.random_connected r ~n:200 ~extra_edges:200 ~max_w:16 in
  let labels = Dsf_graph.Gen.random_labels r ~n:200 ~t:20 ~k:5 in
  let inst = Dsf_graph.Instance.make_ic g labels in
  let rec sum f (s : Telemetry.span) =
    List.fold_left (fun acc c -> acc + sum f c) (f s) s.Telemetry.children
  in
  let totals tel f =
    List.fold_left (fun acc s -> acc + sum f s) 0 (Telemetry.root_spans tel)
  in
  let covered name solve =
    let r, tel = Flight.telemetry () in
    let ledger = solve ~telemetry:tel in
    let events = Flight.events r in
    let sends = List.length (Flight.sends_of_events events) in
    check Alcotest.bool (name ^ ": traffic recorded") true (sends > 0);
    check Alcotest.int
      (name ^ ": log sends = span messages")
      (totals tel (fun s -> s.Telemetry.messages))
      sends;
    check Alcotest.int
      (name ^ ": log rounds = span rounds")
      (totals tel (fun s -> s.Telemetry.rounds))
      (Flight.rounds events);
    check Alcotest.int
      (name ^ ": ledger simulated = sim/rounds")
      (Dsf_util.Metrics.counter_value (Telemetry.metrics tel) "sim/rounds")
      (Ledger.simulated ledger);
    check Alcotest.int
      (name ^ ": ledger simulated = log rounds")
      (Flight.rounds events) (Ledger.simulated ledger)
  in
  covered "det" (fun ~telemetry ->
      (Dsf_core.Det_dsf.run ~telemetry inst).ledger);
  covered "sublinear" (fun ~telemetry ->
      (Dsf_core.Det_sublinear.run ~telemetry ~eps_num:1 ~eps_den:2 inst)
        .ledger);
  List.iter
    (fun jobs ->
      covered (Printf.sprintf "rand jobs=%d" jobs) (fun ~telemetry ->
          (Dsf_core.Rand_dsf.run ~telemetry ~repetitions:3 ~jobs
             ~rng:(Dsf_util.Rng.create 3) inst)
            .ledger))
    [ 1; 2 ];
  (* Unwrapped: khan opens its own khan_baseline span. *)
  covered "khan" (fun ~telemetry ->
      (Dsf_core.Khan_etal.run ~telemetry ~repetitions:2
         ~rng:(Dsf_util.Rng.create 3) inst)
        .Dsf_core.Khan_etal.ledger);
  let measured name f =
    let r, env = Flight.env () in
    let _, (s : Sim.stats) = Sim.measure ~env f in
    let events = Flight.events r in
    let sends = Flight.sends_of_events events in
    check Alcotest.bool (name ^ ": traffic recorded") true (sends <> []);
    check Alcotest.int (name ^ ": messages = log sends") (List.length sends)
      s.messages;
    check Alcotest.int
      (name ^ ": bits = log bits")
      (List.fold_left (fun acc (_, _, b) -> acc + b) 0 sends)
      s.total_bits;
    check Alcotest.int (name ^ ": rounds = log rounds") (Flight.rounds events)
      s.rounds
  in
  let n = Dsf_graph.Graph.n g and m = Dsf_graph.Graph.m g in
  let tree = Bfs.build g ~root:(Bfs.max_id_root g) in
  let parent = tree.Bfs.parent in
  let bits x = Dsf_util.Bitsize.int_bits (Int.max 1 x) in
  let mask = Array.init m (fun eid -> eid mod 2 = 0) in
  let vt = Dsf_embed.Virtual_tree.build (Dsf_util.Rng.create 5) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
  let target = vt.Dsf_embed.Virtual_tree.ancestors.(0).(vt.levels) in
  let origins v = if v = 0 then [ 7, target ] else [] in
  let rstates = Dsf_core.Level_routing.route_phase g vt ~origins in
  let bundles v =
    if v = target then
      [ { Dsf_core.Level_routing.route = 7, target; payload = 1 } ]
    else []
  in
  let edge = Dsf_graph.Graph.edge g 0 in
  measured "bfs" (fun env -> Bfs.build ~env g ~root:0);
  measured "upcast" (fun env ->
      Tree_ops.upcast ~env g ~tree ~items:(fun v -> [ v ]) ~bits);
  measured "upcast_dedup" (fun env ->
      Tree_ops.upcast_dedup ~env ~per_key:2 g ~tree
        ~items:(fun v -> [ v mod 7 ])
        ~key:Fun.id ~bits);
  measured "upcast_sequential" (fun env ->
      Tree_ops.upcast_sequential ~env g ~tree
        ~items:(fun v -> if v mod 20 = 0 then [ v ] else [])
        ~bits);
  measured "broadcast" (fun env ->
      Tree_ops.broadcast ~env g ~tree ~items:[ 1; 2; 3 ] ~bits);
  measured "aggregate" (fun env ->
      Tree_ops.aggregate ~env g ~tree ~value:Fun.id ~combine:( + ) ~bits);
  measured "count_nodes" (fun env -> Tree_ops.count_nodes ~env g ~tree);
  measured "exchange" (fun env ->
      Exchange.all_neighbors ~env g ~payload_bits:9);
  measured "filtered_upcast" (fun env ->
      Pipeline.filtered_upcast ~env g ~tree ~vn:n ~pre:[]
        ~items:(fun v ->
          Array.to_list (Dsf_graph.Graph.edges g)
          |> List.filter_map (fun (e : Dsf_graph.Graph.edge) ->
                 if Int.min e.u e.v = v then
                   Some { Pipeline.key = (e.w, e.id); a = e.u; b = e.v }
                 else None))
        ~cmp:compare
        ~bits:(fun _ -> 30));
  measured "bellman_ford" (fun env ->
      Bellman_ford.run ~env g ~sources:[ 0, 0; 5, 2 ]);
  measured "sssp" (fun env -> Bellman_ford.sssp ~env g ~src:0);
  measured "three_color" (fun env -> Coloring.three_color ~env g ~parent);
  measured "maximal_matching" (fun env ->
      Coloring.maximal_matching ~env g ~parent);
  measured "gossip_extremum" (fun env ->
      Component_ops.gossip_extremum ~env g ~mask
        ~values:(fun v -> Some v)
        ~better:( > ) ~bits);
  measured "leaders" (fun env -> Component_ops.leaders ~env g ~mask);
  measured "component_min_item" (fun env ->
      Component_ops.component_min_item ~env g ~mask
        ~values:(fun v -> Some (v mod 13))
        ~cmp:compare ~bits);
  measured "leader" (fun env -> Leader.elect ~env g);
  measured "le_list" (fun env ->
      Dsf_embed.Le_list.build ~env (Dsf_util.Rng.create 5) g);
  measured "f6" (fun env ->
      Dsf_core.F6_protocol.run ~env g ~parent
        ~labels:(fun v -> if v mod 10 = 0 then [ v mod 3 ] else []));
  measured "region_bf" (fun env ->
      Dsf_core.Region_bf.run ~env g
        ~sources:[ 0, Dsf_core.Frac.zero, 0; 100, Dsf_core.Frac.zero, 100 ]
        ~frozen:(Array.make n false));
  measured "route_phase" (fun env ->
      Dsf_core.Level_routing.route_phase ~env g vt ~origins);
  measured "backtrace_phase" (fun env ->
      Dsf_core.Level_routing.backtrace_phase ~env g
        ~tables:(fun v -> rstates.(v).Dsf_core.Level_routing.known)
        ~bundles);
  measured "token_flood" (fun env ->
      Dsf_core.Select.token_flood ~env g ~parent
        ~seeds:(Array.init n (fun v -> v mod 17 = 0)));
  measured "merge_paths" (fun env ->
      Dsf_core.Select.merge_paths ~env g ~labels:[| 0; 0 |] ~parent
        [ (0, 1), edge.Dsf_graph.Graph.id ])

(* ------------------------------------------------------- pooled merging *)

(* The full fork/merge discipline end-to-end: Rand_dsf's repetition
   fan-out must produce the identical telemetry — span tree, events,
   metrics, every rendering, and the flight log — for any jobs.  The
   constant clock and [~now:0] remove the legitimately nondeterministic
   fields. *)
let prop_pool_merge_jobs_invariant =
  QCheck.Test.make ~name:"rand_dsf telemetry is jobs-invariant" ~count:4
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let inst = small_instance seed in
      let render jobs =
        let recorder, tel = Flight.telemetry () in
        let r =
          Dsf_core.Rand_dsf.run ~telemetry:tel ~repetitions:4 ~jobs
            ~rng:(Dsf_util.Rng.create (seed + 1))
            inst
        in
        ( r.Dsf_core.Rand_dsf.weight,
          Format.asprintf "%a" Telemetry.pp tel,
          Telemetry.to_jsonl_string tel,
          Telemetry.to_chrome_string tel,
          Recorder.to_string recorder )
      in
      let j1 = render 1 in
      j1 = render 2 && j1 = render 4)

(* Metrics registries merged in trial order are bit-identical to filling a
   single registry sequentially — the commutative-monoid fact the pooled
   discipline rests on — regardless of the interleaving the domains
   actually executed. *)
let prop_metrics_merge_order_independent =
  QCheck.Test.make ~name:"metrics merge = sequential fill" ~count:50
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_range 0 3) (int_range 0 200)))
    (fun ops ->
      let apply m (key, v) =
        match key with
        | 0 -> Dsf_util.Metrics.incr m "a" v
        | 1 -> Dsf_util.Metrics.incr m "b" v
        | 2 -> Dsf_util.Metrics.observe m "h" v
        | _ -> Dsf_util.Metrics.observe m "g" v
      in
      let sequential = Dsf_util.Metrics.create () in
      List.iter (apply sequential) ops;
      (* Split the op stream across three "trial" registries round-robin
         (simulating arbitrary domain assignment), then merge in order. *)
      let forks = Array.init 3 (fun _ -> Dsf_util.Metrics.create ()) in
      List.iteri (fun i op -> apply forks.(i mod 3) op) ops;
      let merged = Dsf_util.Metrics.create () in
      Array.iter (fun f -> Dsf_util.Metrics.merge_into ~dst:merged f) forks;
      Format.asprintf "%a" Dsf_util.Metrics.pp merged
      = Format.asprintf "%a" Dsf_util.Metrics.pp sequential)

(* ------------------------------------------------------ off = untouched *)

(* ?telemetry:None must leave the algorithms bit-identical to the seed
   behavior: same solution, same weight, same ledger totals as a run that
   never mentions telemetry at all — and the instrumented run must agree
   too (the hook only observes). *)
let test_telemetry_off_matches_seed () =
  let inst = small_instance 21 in
  let bare = Dsf_core.Det_dsf.run inst in
  let off = Dsf_core.Det_dsf.run ?telemetry:None inst in
  let tel = Telemetry.create ~clock:const_clock () in
  let on = Dsf_core.Det_dsf.run ~telemetry:tel inst in
  List.iter
    (fun (name, (r : Dsf_core.Det_dsf.result)) ->
      check Alcotest.int (name ^ " weight") bare.Dsf_core.Det_dsf.weight
        r.Dsf_core.Det_dsf.weight;
      check
        Alcotest.(array bool)
        (name ^ " solution") bare.Dsf_core.Det_dsf.solution
        r.Dsf_core.Det_dsf.solution;
      check Alcotest.int (name ^ " simulated")
        (Ledger.simulated bare.Dsf_core.Det_dsf.ledger)
        (Ledger.simulated r.Dsf_core.Det_dsf.ledger);
      check Alcotest.int (name ^ " charged")
        (Ledger.charged bare.Dsf_core.Det_dsf.ledger)
        (Ledger.charged r.Dsf_core.Det_dsf.ledger))
    [ "off", off; "on", on ]

let suites =
  [
    ( "congest.telemetry",
      [
        Alcotest.test_case "golden console tree" `Quick test_golden_console;
        Alcotest.test_case "golden jsonl" `Quick test_golden_jsonl;
        Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome;
        Alcotest.test_case "det_dsf phase tree" `Quick test_det_phase_tree;
        Alcotest.test_case "det_sublinear phase tree" `Quick
          test_sublinear_phase_tree;
        Alcotest.test_case "one env taps every simulated run" `Quick
          test_instrumentation_coverage;
        qtest prop_pool_merge_jobs_invariant;
        qtest prop_metrics_merge_order_independent;
        Alcotest.test_case "telemetry off = seed behavior" `Quick
          test_telemetry_off_matches_seed;
      ] );
  ]
