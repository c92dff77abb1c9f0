(* Differential tests for the production engine: Sim.run / Sim.run_flat
   (skip idle nodes, arena delivery, domain-partitioned rounds) and the
   native flat ports must be observationally identical to
   Sim.run_reference (the seed loop that steps every node every round) —
   same stats, same final states, same results — on randomized graphs and
   the protocols that declare sparse wake-ups. *)

open Dsf_graph
open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let with_reference f =
  Sim.use_reference_engine := true;
  Fun.protect ~finally:(fun () -> Sim.use_reference_engine := false) f

(* Run the same closure on the production engine (native ports) and under
   the reference shim (classic protocols on the seed loop) and hand back
   both results.  The closure must be deterministic (all our protocols
   are). *)
let both f = f (), with_reference f

let stats_eq (a : Sim.stats) (b : Sim.stats) = a = b

let random_graph seed =
  let r = rng seed in
  let n = 8 + Dsf_util.Rng.int r 20 in
  let extra = Dsf_util.Rng.int r (2 * n) in
  let max_w = 1 + Dsf_util.Rng.int r 12 in
  Gen.random_connected r ~n ~extra_edges:extra ~max_w

(* ------------------------------------------------------------- raw protos *)

(* The unit-suite flood protocol, with a sparse wake: exercises run vs
   run_reference directly (not through the engine shim). *)
type flood_state = { heard : int option; relayed : bool }

let flood_protocol root : (flood_state, unit) Sim.protocol =
  {
    init =
      (fun view ->
        if view.Sim.node = root then { heard = Some 0; relayed = false }
        else { heard = None; relayed = false });
    step =
      (fun view ~round st ~inbox ->
        let st =
          match st.heard, inbox with
          | None, _ :: _ -> { st with heard = Some round }
          | _ -> st
        in
        if st.heard <> None && not st.relayed then
          ( { st with relayed = true },
            Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()) )
        else st, []);
    is_done = (fun st -> st.heard <> None && st.relayed);
    msg_bits = (fun () -> 1);
    wake = Some Sim.never;
  }

let prop_flood_equiv =
  QCheck.Test.make ~name:"run = run_reference (flood, sparse wake)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let s1, t1 = Sim.run g (flood_protocol root) in
      let s2, t2 = Sim.run_reference g (flood_protocol root) in
      s1 = s2 && stats_eq t1 t2)

(* ------------------------------------------------- library entry points *)

let prop_bellman_ford_equiv =
  QCheck.Test.make ~name:"run = run_reference (Bellman-Ford Voronoi)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 1) in
      let k = 1 + Dsf_util.Rng.int r 3 in
      let sources =
        List.init k (fun _ ->
            Dsf_util.Rng.int r n, Dsf_util.Rng.int r 5)
      in
      let (res1, t1), (res2, t2) =
        both (fun () -> Bellman_ford.run g ~sources)
      in
      res1 = res2 && stats_eq t1 t2)

let prop_pipeline_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (pipelined filtered upcast)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 2) in
      let tree = fst (Bfs.build g ~root:(Dsf_util.Rng.int r n)) in
      let vn = 10 in
      let items_all =
        List.init 20 (fun i ->
            let a = Dsf_util.Rng.int r vn and b = Dsf_util.Rng.int r vn in
            if a = b then None
            else Some (Dsf_util.Rng.int r n, { Pipeline.key = i; a; b }))
        |> List.filter_map Fun.id
      in
      let items v =
        List.filter (fun (h, _) -> h = v) items_all |> List.map snd
      in
      let (acc1, t1), (acc2, t2) =
        both (fun () ->
            Pipeline.filtered_upcast g ~tree ~vn ~pre:[] ~items ~cmp:compare
              ~bits:(fun _ -> 16))
      in
      acc1 = acc2 && stats_eq t1 t2)

let prop_tree_ops_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (upcast / broadcast / aggregate)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      let (up1, ut1), (up2, ut2) =
        both (fun () ->
            Tree_ops.upcast g ~tree ~items:(fun v -> [ v; v + n ]) ~bits)
      in
      let (bc1, bt1), (bc2, bt2) =
        both (fun () ->
            Tree_ops.broadcast g ~tree ~items:[ 1; 2; 3 ] ~bits)
      in
      let (ag1, at1), (ag2, at2) =
        both (fun () ->
            Tree_ops.aggregate g ~tree ~value:Fun.id ~combine:( + ) ~bits)
      in
      up1 = up2 && stats_eq ut1 ut2
      && bc1 = bc2 && stats_eq bt1 bt2
      && ag1 = ag2 && stats_eq at1 at2)

let prop_bfs_leader_exchange_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (BFS / leader / exchange)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let (tr1, bt1), (tr2, bt2) =
        both (fun () -> Bfs.build g ~root:(seed mod Graph.n g))
      in
      let le1, le2 = both (fun () -> Leader.elect g) in
      let ex1, ex2 =
        both (fun () -> Exchange.all_neighbors g ~payload_bits:9)
      in
      tr1 = tr2 && stats_eq bt1 bt2 && le1 = le2 && stats_eq ex1 ex2)

let prop_telemetry_transparent =
  QCheck.Test.make
    ~name:"?telemetry never perturbs a run (both engines)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* The hook only observes: states, stats and observer traces of an
         instrumented run must be bit-identical to the bare run — on the
         production engine and the reference loop alike. *)
      let record_flat telemetry =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let s, t = Sim.run ~observer ?telemetry g (flood_protocol root) in
        s, t, List.rev !log
      in
      let record_reference telemetry =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let s, t =
          Sim.run_reference ~observer ?telemetry g (flood_protocol root)
        in
        s, t, List.rev !log
      in
      let tel () = Some (Telemetry.create ~clock:(fun () -> 0L) ()) in
      record_flat None = record_flat (tel ())
      && record_reference None = record_reference (tel ()))

let prop_empty_plan_identity =
  QCheck.Test.make
    ~name:"?faults with the empty plan is bit-identical" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* States, stats AND observer traces must all coincide: an empty
         plan never fires, so the fault-injecting engine path has to be
         indistinguishable from the fault-free one. *)
      let record faults =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let s, t = Sim.run ~observer ?faults g (flood_protocol root) in
        s, t, List.rev !log
      in
      record None = record (Some (Fault.instantiate Fault.empty)))

(* --------------------------------------------------------------- corners *)

let test_single_node () =
  let g = Graph.make ~n:1 [] in
  let (s1, t1), (s2, t2) = both (fun () -> Sim.run g (flood_protocol 0)) in
  ignore s1;
  ignore s2;
  check Alcotest.int "rounds" t2.Sim.rounds t1.Sim.rounds;
  Alcotest.(check bool) "stats equal" true (stats_eq t1 t2)

let test_round_limit_equiv () =
  (* Both engines must hit Round_limit at the same round on a protocol that
     never quiesces. *)
  let g = Gen.path 3 in
  let chatty : (unit, unit) Sim.protocol =
    {
      init = (fun _ -> ());
      step =
        (fun view ~round:_ st ~inbox:_ ->
          st, Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()));
      is_done = (fun () -> true);
      msg_bits = (fun () -> 1);
      wake = None;
    }
  in
  let limit_of run =
    match run () with
    | exception Sim.Round_limit a -> a.Sim.at_round
    | _ -> -1
  in
  let flat = limit_of (fun () -> Sim.run ~max_rounds:7 g chatty) in
  let reference =
    limit_of (fun () -> Sim.run_reference ~max_rounds:7 g chatty)
  in
  check Alcotest.int "same limit" reference flat;
  check Alcotest.int "limit is 7" 7 flat

let test_halt_equiv () =
  let g = Gen.path 4 in
  let counting : (int, unit) Sim.protocol =
    {
      init = (fun _ -> 0);
      step =
        (fun view ~round:_ c ~inbox:_ ->
          ( c + 1,
            Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()) ));
      is_done = (fun _ -> false);
      msg_bits = (fun () -> 1);
      wake = None;
    }
  in
  let halt sts = sts.(0) >= 4 in
  let (s1, t1), (s2, t2) = both (fun () -> Sim.run ~halt g counting) in
  check Alcotest.(array int) "states" s2 s1;
  Alcotest.(check bool) "stats equal" true (stats_eq t1 t2)

let test_scheduler_skips_idle () =
  (* A protocol that is done from the start and never sends: with a sparse
     wake the production engine must not step anyone (states stay at init),
     while the reference engine steps everyone once.  Stats agree anyway —
     this is exactly the contract boundary the [wake] docs describe. *)
  let g = Gen.grid ~rows:3 ~cols:3 in
  let lazybones : (int, unit) Sim.protocol =
    {
      init = (fun _ -> 0);
      step = (fun _ ~round:_ c ~inbox:_ -> c + 1, []);
      is_done = (fun _ -> true);
      msg_bits = (fun () -> 1);
      wake = Some Sim.never;
    }
  in
  let s_flat, t_flat = Sim.run g lazybones in
  let s_ref, t_ref = Sim.run_reference g lazybones in
  Array.iter (fun c -> check Alcotest.int "never stepped" 0 c) s_flat;
  Array.iter (fun c -> check Alcotest.int "stepped once" 1 c) s_ref;
  Alcotest.(check bool) "stats still equal" true (stats_eq t_flat t_ref)

let test_observer_order_identical () =
  (* The observer must see the same (src, dst, bits) sequence from both
     engines — traces and cut meters rely on it. *)
  let g = random_graph 424_242 in
  let record f =
    let log = ref [] in
    ignore (f ~observer:(fun ~src ~dst ~bits -> log := (src, dst, bits) :: !log));
    List.rev !log
  in
  let sssp ~observer = Bellman_ford.sssp ~observer g ~src:0 in
  let l1 = record sssp in
  let l2 = record (fun ~observer -> with_reference (fun () -> sssp ~observer)) in
  check Alcotest.int "same length" (List.length l2) (List.length l1);
  Alcotest.(check bool) "same sequence" true (l1 = l2)

(* ------------------------------------------------------------ flat engine *)

(* Capture a run as a comparable value: states, stats and the observer
   trace on success, the full abort post-mortem on Round_limit (both
   sides of a differential must stall identically too). *)
let capture run g proto =
  let log = ref [] in
  let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
  let outcome =
    match run ~observer g proto with
    | s, t -> Ok (s, t)
    | exception Sim.Round_limit a -> Error a
  in
  outcome, List.rev !log

(* A native flat port of [flood_protocol]: the oracle for the adapter
   (and for the engine's fault path, which the seed loop lacks). *)
let flood_flat root : (flood_state, unit) Sim.flat_protocol =
  let p = flood_protocol root in
  {
    fp_init = p.init;
    fp_step =
      (fun view ~round st ~inbox ~emit ->
        let st =
          if st.heard = None && Sim.inbox_len inbox > 0 then
            { st with heard = Some round }
          else st
        in
        if st.heard <> None && not st.relayed then begin
          Array.iter (fun (nb, _, _) -> emit ~dst:nb ()) view.Sim.nbrs;
          { st with relayed = true }
        end
        else st);
    fp_is_done = p.is_done;
    fp_msg_bits = p.msg_bits;
    fp_wake = p.wake;
  }

let prop_flat_equiv_faults_telemetry =
  QCheck.Test.make
    ~name:"adapter = native port (faults + telemetry on, incl. stalls)"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      (* Drops can strand the flood forever (it never retransmits), so a
         stall is an expected outcome here: every leg must then raise
         Round_limit with the same post-mortem. *)
      let plan =
        Fault.plan ~drop:0.15 ~duplicate:0.1
          ~link_down:[ (root, (root + 1) mod n, 0, 2) ]
          ~crashes:[ ((root + 2) mod n, 1, 3) ]
          ~seed ()
      in
      let leg run =
        capture
          (fun ~observer g () ->
            let faults = Fault.instantiate plan in
            let telemetry = Telemetry.create ~clock:(fun () -> 0L) () in
            run ~observer ~faults ~telemetry g)
          g ()
      in
      let adapter jobs =
        leg (fun ~observer ~faults ~telemetry g ->
            Sim.run ~max_rounds:300 ~observer ~faults ~telemetry ~jobs g
              (flood_protocol root))
      in
      let native =
        leg (fun ~observer ~faults ~telemetry g ->
            Sim.run_flat ~max_rounds:300 ~observer ~faults ~telemetry g
              (flood_flat root))
      in
      let a1 = adapter 1 in
      a1 = native && a1 = adapter 3)

let prop_flat_equiv_lossless =
  QCheck.Test.make
    ~name:"adapter = native port = reference (lossless, telemetry on)"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let leg run =
        capture
          (fun ~observer g () ->
            let telemetry = Telemetry.create ~clock:(fun () -> 0L) () in
            run ~observer ~telemetry g)
          g ()
      in
      let adapter =
        leg (fun ~observer ~telemetry g ->
            Sim.run ~observer ~telemetry g (flood_protocol root))
      in
      adapter
      = leg (fun ~observer ~telemetry g ->
            Sim.run_flat ~observer ~telemetry g (flood_flat root))
      && adapter
         = leg (fun ~observer ~telemetry g ->
               Sim.run_reference ~observer ~telemetry g (flood_protocol root)))

(* The seed loop has no fault injection, so the engine's fault accounting
   is pinned by hand on a 4-node path flood (6 sends lossless): every
   counter against its definition in sim.mli, on the adapter, the native
   port and a partitioned run. *)
let test_fault_accounting () =
  let g = Gen.path 4 in
  let faults ?(down = fun ~round:_ ~node:_ -> false) action =
    { Sim.on_send = (fun ~round:_ ~src:_ ~dst:_ -> action); down;
      retransmissions = ref 0 }
  in
  let legs f =
    [
      ( "adapter",
        fun () ->
          f (fun faults -> Sim.run ~max_rounds:20 ~faults g (flood_protocol 0))
      );
      ( "native",
        fun () ->
          f (fun faults -> Sim.run_flat ~max_rounds:20 ~faults g (flood_flat 0))
      );
      ( "jobs 2",
        fun () ->
          f (fun faults ->
              Sim.run ~max_rounds:20 ~faults ~jobs:2 g (flood_protocol 0)) );
    ]
  in
  let lossless_states, lossless = Sim.run_reference g (flood_protocol 0) in
  let counts (t : Sim.stats) = t.messages, t.dropped, t.duplicated in
  let abort_counts run =
    match run () with
    | _ -> Alcotest.fail "expected the flood to stall"
    | exception Sim.Round_limit a -> counts a.Sim.snapshot
  in
  let triple = Alcotest.(triple int int int) in
  List.iter
    (fun (leg, run) ->
      let states, t = run () in
      Alcotest.(check bool) (leg ^ ": replicated states") true
        (states = lossless_states);
      check Alcotest.int (leg ^ ": replicated rounds") lossless.Sim.rounds
        t.Sim.rounds;
      check triple (leg ^ ": Replicate 3") (6, 0, 12) (counts t))
    (legs (fun go -> go (faults (Sim.Replicate 3))));
  (* Dropping everything strands the flood after the root's one send. *)
  List.iter
    (fun (leg, run) ->
      check triple (leg ^ ": Drop") (1, 1, 0) (abort_counts run))
    (legs (fun go -> go (faults Sim.Drop)));
  (* Node 1 is down in rounds 1-2: the root's mail to it is destroyed, and
     it restarts at round 3 from init, never hearing the flood. *)
  let down ~round ~node = node = 1 && round >= 1 && round < 3 in
  List.iter
    (fun (leg, run) ->
      check triple (leg ^ ": crash window") (1, 1, 0) (abort_counts run))
    (legs (fun go -> go (faults ~down Sim.Deliver)))

let prop_flat_jobs_invariant =
  QCheck.Test.make
    ~name:"flat engine is jobs-invariant (1 = 2 = 4, observer incl.)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* Two scheduling regimes: the sparse fast path (no faults) and the
         full criterion sweep (faults present) must both be independent
         of the domain count. *)
      let sparse jobs =
        capture
          (fun ~observer g p -> Sim.run ~observer ~jobs g p)
          g (flood_protocol root)
      in
      let swept jobs =
        capture
          (fun ~observer g p ->
            let faults =
              Fault.instantiate (Fault.plan ~drop:0.1 ~seed ())
            in
            Sim.run ~max_rounds:300 ~observer ~faults ~jobs g p)
          g (flood_protocol root)
      in
      let s1 = sparse 1 and w1 = swept 1 in
      s1 = sparse 2 && s1 = sparse 4 && w1 = swept 2 && w1 = swept 4)

let prop_flat_native_bfs =
  QCheck.Test.make
    ~name:"Bfs.flat_protocol = Bfs.protocol (tree, stats, jobs sweep)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      let tree, t_classic = with_reference (fun () -> Bfs.build g ~root) in
      let flat jobs = Sim.run_flat ~jobs g (Bfs.flat_protocol ~n ~root) in
      let f1, t1 = flat 1 and f4, t4 = flat 4 in
      let same_tree = ref true in
      Array.iteri
        (fun v packed ->
          match Bfs.flat_state_parent_depth ~n packed with
          | None -> same_tree := false (* connected: everyone is reached *)
          | Some (p, d) ->
              if p <> tree.Bfs.parent.(v) || d <> tree.Bfs.depth.(v) then
                same_tree := false)
        f1;
      !same_tree && stats_eq t_classic t1 && f1 = f4 && stats_eq t1 t4)

(* ---------------------------------------------------- flat native ports *)

(* Every primitive ported natively to the flat engine must be bit-identical
   to its classic protocol — result, stats, and observer trace — with
   telemetry on, and for any domain count.  The classic legs run under the
   reference shim ([with_reference]): lossless they run on the seed loop;
   under a duplicate-only fault plan (drop/crash plans can legitimately
   stall an upcast forever) the seed loop has no fault injection, so the
   classic protocol runs on the flat engine through the adapter. *)
let record_leg f =
  let log = ref [] in
  let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
  let telemetry = Telemetry.create ~clock:(fun () -> 0L) () in
  let r = f ~observer ~telemetry in
  r, List.rev !log

let dup_plan seed = Fault.plan ~duplicate:0.15 ~seed ()

(* The shared leg pattern: [leg ?faults ?jobs ()] runs the primitive;
   native legs at jobs 1/2/4 must equal the classic reference leg, and the
   native faulty leg at jobs 2 must equal the classic faulty leg. *)
let native_matches_classic ?(jobs = [ 1; 2; 4 ]) ~seed
    (leg : ?faults:Sim.faults -> ?jobs:int -> unit -> 'a) =
  let faulty ?jobs () =
    leg ~faults:(Fault.instantiate (dup_plan seed)) ?jobs ()
  in
  let base = with_reference (fun () -> leg ()) in
  List.for_all (fun j -> base = leg ~jobs:j ()) jobs
  && with_reference (fun () -> faulty ()) = faulty ~jobs:2 ()

let prop_flat_native_bellman_ford =
  QCheck.Test.make
    ~name:"Bellman-Ford native flat = classic (faults, telemetry, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 11) in
      let k = 1 + Dsf_util.Rng.int r 3 in
      let sources =
        List.init k (fun _ -> Dsf_util.Rng.int r n, Dsf_util.Rng.int r 5)
      in
      let radius =
        if Dsf_util.Rng.int r 2 = 0 then Some (5 + Dsf_util.Rng.int r 20)
        else None
      in
      native_matches_classic ~seed (fun ?faults ?jobs () ->
          record_leg (fun ~observer ~telemetry ->
              Bellman_ford.run ?radius ~observer ?faults ~telemetry ?jobs g
                ~sources)))

let prop_flat_native_region_bf =
  QCheck.Test.make
    ~name:"Region-BF native flat = classic (faults, telemetry, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 13) in
      let k = 1 + Dsf_util.Rng.int r 3 in
      let sources =
        List.init k (fun i ->
            let v = Dsf_util.Rng.int r n in
            let off = Dsf_core.Frac.half (Dsf_core.Frac.of_int (Dsf_util.Rng.int r 6)) in
            v, off, i)
      in
      let frozen =
        Array.init n (fun v ->
            Dsf_util.Rng.int r 6 = 0
            && not (List.exists (fun (s, _, _) -> s = v) sources))
      in
      native_matches_classic ~seed (fun ?faults ?jobs () ->
          record_leg (fun ~observer ~telemetry ->
              Dsf_core.Region_bf.run ~observer ?faults ~telemetry ?jobs g
                ~sources ~frozen)))

let prop_flat_native_tree_ops =
  QCheck.Test.make
    ~name:"tree ops native flat = classic (faults, telemetry, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      let jobs = [ 1; 4 ] in
      (* The child-count handshake of [aggregate] dedups child reports by
         sender id (each child reports exactly once, so the sender is its
         own sequence stamp): duplicate-injecting plans leave the state
         trajectory — and the root's total — untouched, so the lossy legs
         compare against each other AND against the lossless sum. *)
      let dup () = Fault.instantiate (dup_plan seed) in
      native_matches_classic ~jobs ~seed (fun ?faults ?jobs () ->
          record_leg (fun ~observer ~telemetry ->
              Tree_ops.upcast ~observer ?faults ~telemetry ?jobs g ~tree
                ~items:(fun v -> [ v; v + n ])
                ~bits))
      && native_matches_classic ~jobs ~seed (fun ?faults ?jobs () ->
             record_leg (fun ~observer ~telemetry ->
                 Tree_ops.broadcast ~observer ?faults ~telemetry ?jobs g
                   ~tree ~items:[ 1; 2; 3 ] ~bits))
      && native_matches_classic ~jobs ~seed (fun ?faults ?jobs () ->
             record_leg (fun ~observer ~telemetry ->
                 Tree_ops.aggregate ~observer ?faults ~telemetry ?jobs g
                   ~tree ~value:Fun.id ~combine:( + ) ~bits))
      && fst
           (Tree_ops.aggregate ~faults:(dup ()) g ~tree ~value:Fun.id
              ~combine:( + ) ~bits)
         = fst
             (Tree_ops.aggregate g ~tree ~value:Fun.id ~combine:( + ) ~bits))

let prop_flat_native_pipeline =
  QCheck.Test.make
    ~name:"filtered upcast native flat = classic (faults, stop, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 17) in
      let tree = fst (Bfs.build g ~root:(Dsf_util.Rng.int r n)) in
      let vn = 10 in
      let items_all =
        List.init 20 (fun i ->
            let a = Dsf_util.Rng.int r vn and b = Dsf_util.Rng.int r vn in
            if a = b then None
            else Some (Dsf_util.Rng.int r n, { Pipeline.key = i; a; b }))
        |> List.filter_map Fun.id
      in
      let items v =
        List.filter (fun (h, _) -> h = v) items_all |> List.map snd
      in
      let leg ?stop_at_root ?faults ?jobs () =
        record_leg (fun ~observer ~telemetry ->
            Pipeline.filtered_upcast ~observer ?faults ~telemetry ?jobs
              ?stop_at_root g ~tree ~vn ~pre:[] ~items ~cmp:compare
              ~bits:(fun _ -> 16))
      in
      let stop acc = List.length acc >= 3 in
      native_matches_classic ~seed (leg ?stop_at_root:None)
      && with_reference (fun () -> leg ~stop_at_root:stop ())
         = leg ~jobs:2 ~stop_at_root:stop ())

let prop_flat_native_select_exchange =
  QCheck.Test.make
    ~name:"token flood + exchange native flat = classic (faults, jobs)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 19) in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let parent = tree.Bfs.parent in
      let seeds = Array.init n (fun _ -> Dsf_util.Rng.int r 3 = 0) in
      let jobs = [ 1; 4 ] in
      native_matches_classic ~jobs ~seed (fun ?faults ?jobs () ->
          record_leg (fun ~observer ~telemetry ->
              Dsf_core.Select.token_flood ~observer ?faults ~telemetry ?jobs g
                ~parent ~seeds))
      && native_matches_classic ~jobs ~seed (fun ?faults ?jobs () ->
             record_leg (fun ~observer ~telemetry ->
                 Exchange.all_neighbors ~observer ?faults ~telemetry ?jobs g
                   ~payload_bits:9)))

let test_det_dsf_flat_e2e () =
  (* Full solve: every subroutine on the flat engine (native ports where
     they exist, the adapter elsewhere) must reproduce the reference
     solve bit for bit, for any domain count. *)
  let r = rng 77 in
  let g = Gen.random_connected r ~n:60 ~extra_edges:60 ~max_w:12 in
  let labels = Gen.spread_labels r g ~t:12 ~k:4 in
  let inst = Instance.make_ic g labels in
  let run ?jobs () =
    let res = Dsf_core.Det_dsf.run ?jobs inst in
    ( res.Dsf_core.Det_dsf.solution,
      res.Dsf_core.Det_dsf.weight,
      res.Dsf_core.Det_dsf.dual,
      res.Dsf_core.Det_dsf.merges,
      res.Dsf_core.Det_dsf.phase_count,
      res.Dsf_core.Det_dsf.max_edge_round_bits,
      Ledger.simulated res.Dsf_core.Det_dsf.ledger,
      Ledger.charged res.Dsf_core.Det_dsf.ledger )
  in
  let base = with_reference (fun () -> run ()) in
  Alcotest.(check bool) "flat jobs=1" true (base = run ~jobs:1 ());
  Alcotest.(check bool) "flat jobs=4" true (base = run ~jobs:4 ())

let test_flat_adapter_inbox_order () =
  (* The adapter's inbox_list must present arrival order exactly as the
     seed loop builds inboxes: senders ascending, send order within a
     sender.  A 2-source flood on a path makes node 2 hear 1 and 3 in the
     same round. *)
  let g = Gen.path 5 in
  let two_roots : (flood_state, unit) Sim.protocol =
    let p = flood_protocol 1 in
    {
      p with
      init =
        (fun view ->
          if view.Sim.node = 1 || view.Sim.node = 3 then
            { heard = Some 0; relayed = false }
          else { heard = None; relayed = false });
    }
  in
  let (s1, t1), (s2, t2) =
    ( Sim.run g two_roots,
      Sim.run_reference g two_roots )
  in
  Alcotest.(check bool) "states" true (s1 = s2);
  Alcotest.(check bool) "stats" true (stats_eq t1 t2)

let suites =
  [
    ( "congest.sim_equiv",
      [
        qtest prop_flood_equiv;
        qtest prop_bellman_ford_equiv;
        qtest prop_pipeline_equiv;
        qtest prop_tree_ops_equiv;
        qtest prop_bfs_leader_exchange_equiv;
        qtest prop_telemetry_transparent;
        qtest prop_empty_plan_identity;
        qtest prop_flat_equiv_faults_telemetry;
        qtest prop_flat_equiv_lossless;
        qtest prop_flat_jobs_invariant;
        qtest prop_flat_native_bfs;
        qtest prop_flat_native_bellman_ford;
        qtest prop_flat_native_region_bf;
        qtest prop_flat_native_tree_ops;
        qtest prop_flat_native_pipeline;
        qtest prop_flat_native_select_exchange;
        Alcotest.test_case "fault accounting" `Quick test_fault_accounting;
        Alcotest.test_case "det_dsf end-to-end on the flat engine" `Quick
          test_det_dsf_flat_e2e;
        Alcotest.test_case "flat adapter inbox order" `Quick
          test_flat_adapter_inbox_order;
        Alcotest.test_case "single node" `Quick test_single_node;
        Alcotest.test_case "round limit" `Quick test_round_limit_equiv;
        Alcotest.test_case "halt hook" `Quick test_halt_equiv;
        Alcotest.test_case "skips idle nodes" `Quick test_scheduler_skips_idle;
        Alcotest.test_case "observer order" `Quick test_observer_order_identical;
      ] );
  ]
