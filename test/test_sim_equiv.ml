(* Differential tests for the production engine: Sim.run / Sim.run_flat
   (skip idle nodes, arena delivery) must be observationally identical to
   Sim.run_reference (the seed loop that steps every node every round) —
   same stats, same final states, same results — on randomized graphs and
   the protocols that declare sparse wake-ups.  Every native flat port
   must also match its classic list protocol (the oracle in classic.ml),
   lossless, under injected faults, and hardened under chaos. *)

open Dsf_graph
open Dsf_congest

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

let with_reference f =
  Sim.use_reference_engine := true;
  Fun.protect ~finally:(fun () -> Sim.use_reference_engine := false) f

(* Run the same closure on the production engine and under the reference
   shim (the same protocols on the seed loop) and hand back both results.
   The closure must be deterministic (all our protocols are). *)
let both f = f (), with_reference f

let stats_eq (a : Sim.stats) (b : Sim.stats) = a = b

(* The run environment the differential legs build: an observer, plus
   optional telemetry and injected faults. *)
let env_of ?faults ?telemetry observer =
  let network =
    match faults with Some f -> Sim.Faults f | None -> Sim.Lossless
  in
  { Sim.default_env with observer = Some observer; telemetry; network }

(* [record_leg ?network f] runs [f] on [network] with an observer and
   telemetry attached and returns its result with the observer trace, in
   send order. *)
let record_leg ?(network = Sim.Lossless) f =
  let log = ref [] in
  let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
  let telemetry = Some (Telemetry.create ~clock:(fun () -> 0L) ()) in
  let r =
    f { Sim.default_env with observer = Some observer; telemetry; network }
  in
  r, List.rev !log

(* A lossless broadcast's trace (every send a delivery, [~bits] naming
   the item) shows each non-root node receiving exactly [items], in order,
   from its tree parent, and the root receiving nothing. *)
let broadcast_delivered ~(tree : Bfs.tree) ~items log =
  let got = Array.map (fun _ -> []) tree.Bfs.parent in
  List.iter (fun (src, dst, bits) -> got.(dst) <- got.(dst) @ [ src, bits ]) log;
  Array.for_all Fun.id
    (Array.mapi
       (fun v got ->
         got = if v = tree.Bfs.root then []
               else List.map (fun it -> tree.Bfs.parent.(v), it) items)
       got)

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
      let items = [ 1; 2; 3 ] in
      let (bt1, bl1), (bt2, bl2) =
        both (fun () ->
            record_leg (fun env ->
                Tree_ops.broadcast ~env g ~tree ~items ~bits:Fun.id))
      in
      let (ag1, at1), (ag2, at2) =
        both (fun () ->
            Tree_ops.aggregate g ~tree ~value:Fun.id ~combine:( + ) ~bits)
      in
      up1 = up2 && stats_eq ut1 ut2
      && stats_eq bt1 bt2 && bl1 = bl2
      && broadcast_delivered ~tree ~items bl1
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
    ~name:"telemetry never perturbs a run (both engines)" ~count:25
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
        let s, t =
          Sim.run ~env:(env_of ?telemetry observer) g (flood_protocol root)
        in
        s, t, List.rev !log
      in
      let record_reference telemetry =
        let log = ref [] in
        let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
        let s, t =
          Sim.run_reference ~env:(env_of ?telemetry observer) g
            (flood_protocol root)
        in
        s, t, List.rev !log
      in
      let tel () = Some (Telemetry.create ~clock:(fun () -> 0L) ()) in
      record_flat None = record_flat (tel ())
      && record_reference None = record_reference (tel ()))

let prop_empty_plan_identity =
  QCheck.Test.make
    ~name:"faults with the empty plan are bit-identical" ~count:25
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
        let s, t =
          Sim.run ~env:(env_of ?faults observer) g (flood_protocol root)
        in
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
  let sssp ~observer = Bellman_ford.sssp ~env:(env_of observer) g ~src:0 in
  let l1 = record sssp in
  let l2 = record (fun ~observer -> with_reference (fun () -> sssp ~observer)) in
  check Alcotest.int "same length" (List.length l2) (List.length l1);
  Alcotest.(check bool) "same sequence" true (l1 = l2)

let test_observer_prefix_on_error () =
  (* Node 1 sends to both path neighbours, then to node 3, which is not
     one: the run raises, and the observer has already seen the two valid
     sends, in the same order on both engines. *)
  let g = Gen.path 4 in
  let outbox v = if v = 1 then [ 0, (); 2, (); 3, () ] else [] in
  let proto : (unit, unit) Sim.protocol =
    {
      init = (fun _ -> ());
      step = (fun view ~round:_ () ~inbox:_ -> (), outbox view.Sim.node);
      is_done = (fun () -> true);
      msg_bits = (fun () -> 1);
      wake = None;
    }
  in
  let native : (unit, unit) Sim.flat_protocol =
    {
      fp_init = (fun _ -> ());
      fp_step =
        (fun view ~round:_ () ~inbox:_ ~emit ->
          List.iter (fun (dst, m) -> emit ~dst m) (outbox view.Sim.node));
      fp_is_done = (fun () -> true);
      fp_msg_bits = (fun () -> 1);
      fp_wake = None;
    }
  in
  let trace run =
    let log = ref [] in
    let observer ~src ~dst ~bits = log := (src, dst, bits) :: !log in
    (match run (env_of observer) with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ());
    List.rev !log
  in
  let reference = trace (fun env -> Sim.run_reference ~env g proto) in
  let sends = Alcotest.(list (triple int int int)) in
  check sends "reference prefix" [ 1, 0, 1; 1, 2, 1 ] reference;
  check sends "flat prefix" reference
    (trace (fun env -> Sim.run_flat ~env g native))

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
      leg (fun ~observer ~faults ~telemetry g ->
          Sim.run ~max_rounds:300 ~env:(env_of ~faults ~telemetry observer) g
            (flood_protocol root))
      = leg (fun ~observer ~faults ~telemetry g ->
            Sim.run_flat ~max_rounds:300
              ~env:(env_of ~faults ~telemetry observer)
              g (flood_flat root)))

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
            Sim.run ~env:(env_of ~telemetry observer) g (flood_protocol root))
      in
      adapter
      = leg (fun ~observer ~telemetry g ->
            Sim.run_flat ~env:(env_of ~telemetry observer) g (flood_flat root))
      && adapter
         = leg (fun ~observer ~telemetry g ->
               Sim.run_reference ~env:(env_of ~telemetry observer) g
                 (flood_protocol root)))

(* The seed loop has no fault injection, so the engine's fault accounting
   is pinned by hand on a 4-node path flood (6 sends lossless): every
   counter against its definition in sim.mli, on the adapter and the
   native port. *)
let test_fault_accounting () =
  let g = Gen.path 4 in
  let faults ?(down = fun ~round:_ ~node:_ -> false) action =
    { Sim.on_send = (fun ~round:_ ~src:_ ~dst:_ -> action); down }
  in
  let env faults = { Sim.default_env with network = Sim.Faults faults } in
  let legs f =
    [
      ( "adapter",
        fun () ->
          f (fun faults ->
              Sim.run ~max_rounds:20 ~env:(env faults) g (flood_protocol 0)) );
      ( "native",
        fun () ->
          f (fun faults ->
              Sim.run_flat ~max_rounds:20 ~env:(env faults) g (flood_flat 0)) );
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

(* ---------------------------------------------------- flat native ports *)

(* Every primitive's native flat port must be bit-identical to its
   classic list protocol (classic.ml) — result, stats, and observer
   trace — with telemetry on, on three networks:
   - lossless, the classic leg on the seed loop (under the reference
     shim) and the port on the flat engine;
   - a duplicate-only fault plan (drop/crash plans can legitimately stall
     an unhardened upcast forever), both on the flat engine;
   - chaos: drops plus one crash window, hardened with each primitive's
     recovery contract.  The hardened stats (rounds, packets,
     retransmissions) must agree, and the port's result must also equal
     its lossless result. *)
let dup_plan seed = Fault.plan ~duplicate:0.15 ~seed ()

let chaos_plan seed g =
  Fault.plan ~drop:0.1 ~crashes:[ seed mod Graph.n g, 2, 5 ] ~seed ()

(* [native] and [classic] run the primitive on the env they are given and
   return its result with the run's stats. *)
let native_matches_classic ~seed g ~(native : Sim.env -> 'r * Sim.stats)
    ~(classic : Sim.env -> 'r * Sim.stats) =
  let dup = Sim.Faults (Fault.instantiate (dup_plan seed)) in
  let chaos = Sim.Chaos (Fault.chaos (chaos_plan seed g)) in
  let ((result, _), _) as lossless = record_leg native in
  let ((hardened, _), _) as chaos_leg = record_leg ~network:chaos native in
  with_reference (fun () -> record_leg classic) = lossless
  && record_leg ~network:dup classic = record_leg ~network:dup native
  && record_leg ~network:chaos classic = chaos_leg
  && hardened = result

let prop_flat_native_bfs =
  QCheck.Test.make
    ~name:"Bfs.flat_protocol = Bfs.protocol (tree, stats)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let root = seed mod n in
      let tree, t_classic =
        with_reference (fun () -> Classic.Bfs.build g ~root)
      in
      let f1, t1 = Sim.run_flat g (Bfs.flat_protocol ~n ~root) in
      let same_tree = ref true in
      Array.iteri
        (fun v packed ->
          match Bfs.flat_state_parent_depth ~n packed with
          | None -> same_tree := false (* connected: everyone is reached *)
          | Some (p, d) ->
              if p <> tree.Bfs.parent.(v) || d <> tree.Bfs.depth.(v) then
                same_tree := false)
        f1;
      !same_tree && stats_eq t_classic t1
      && native_matches_classic ~seed g
           ~native:(fun env -> Bfs.build ~env g ~root)
           ~classic:(fun env -> Classic.Bfs.build ~env g ~root))

let prop_flat_native_bellman_ford =
  QCheck.Test.make
    ~name:"Bellman-Ford native flat = classic (faults, telemetry)"
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
      (* The result's [rounds] is the run's, which chaos changes. *)
      let labels (r, stats) = { r with Bellman_ford.rounds = 0 }, stats in
      native_matches_classic ~seed g
        ~native:(fun env -> labels (Bellman_ford.run ?radius ~env g ~sources))
        ~classic:(fun env ->
          labels (Classic.Bellman_ford.run ?radius ~env g ~sources)))

let prop_flat_native_region_bf =
  QCheck.Test.make
    ~name:"Region-BF native flat = classic (faults, telemetry)"
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
      native_matches_classic ~seed g
        ~native:(fun env -> Dsf_core.Region_bf.run ~env g ~sources ~frozen)
        ~classic:(fun env -> Classic.Region_bf.run ~env g ~sources ~frozen))

let prop_flat_native_tree_ops =
  QCheck.Test.make
    ~name:"tree ops native flat = classic (faults, telemetry)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      (* The child-count handshake of [aggregate] dedups child reports by
         sender id (each child reports exactly once, so the sender is its
         own sequence stamp): duplicate-injecting plans leave the state
         trajectory — and the root's total — untouched, so the lossy legs
         compare against each other AND against the lossless sum. *)
      let dup () = Fault.instantiate (dup_plan seed) in
      let items v = [ v; v + n ] in
      let broadcast run env =
        (), run env g ~tree ~items:[ 1; 2; 3 ] ~bits:Fun.id
      in
      native_matches_classic ~seed g
        ~native:(fun env -> Tree_ops.upcast ~env g ~tree ~items ~bits)
        ~classic:(fun env -> Classic.Tree_ops.upcast ~env g ~tree ~items ~bits)
      && native_matches_classic ~seed g
           ~native:(broadcast (fun env -> Tree_ops.broadcast ~env))
           ~classic:(broadcast (fun env -> Classic.Tree_ops.broadcast ~env))
      && native_matches_classic ~seed g
           ~native:(fun env ->
             Tree_ops.aggregate ~env g ~tree ~value:Fun.id ~combine:( + ) ~bits)
           ~classic:(fun env ->
             Classic.Tree_ops.aggregate ~env g ~tree ~value:Fun.id
               ~combine:( + ) ~bits)
      && fst
           (Tree_ops.aggregate
              ~env:{ Sim.default_env with network = Sim.Faults (dup ()) }
              g ~tree ~value:Fun.id ~combine:( + ) ~bits)
         = fst
             (Tree_ops.aggregate g ~tree ~value:Fun.id ~combine:( + ) ~bits))

let prop_flat_native_pipeline =
  QCheck.Test.make
    ~name:"filtered upcast native flat = classic (faults, stop)"
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
      let native ?stop_at_root env =
        Pipeline.filtered_upcast ~env ?stop_at_root g ~tree ~vn ~pre:[]
          ~items ~cmp:compare ~bits:(fun _ -> 16)
      and classic ?stop_at_root env =
        Classic.Pipeline.filtered_upcast ~env ?stop_at_root g ~tree ~vn
          ~pre:[] ~items ~cmp:compare ~bits:(fun _ -> 16)
      in
      let stop acc = List.length acc >= 3 in
      native_matches_classic ~seed g ~native:(native ?stop_at_root:None)
        ~classic:(classic ?stop_at_root:None)
      && with_reference (fun () ->
             record_leg (classic ~stop_at_root:stop))
         = record_leg (native ~stop_at_root:stop))

let prop_flat_native_select_exchange =
  QCheck.Test.make
    ~name:"token flood + exchange native flat = classic (faults)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 19) in
      let tree = fst (Bfs.build g ~root:(seed mod n)) in
      let parent = tree.Bfs.parent in
      let seeds = Array.init n (fun _ -> Dsf_util.Rng.int r 3 = 0) in
      native_matches_classic ~seed g
        ~native:(fun env -> Dsf_core.Select.token_flood ~env g ~parent ~seeds)
        ~classic:(fun env -> Classic.Select.token_flood ~env g ~parent ~seeds)
      && native_matches_classic ~seed g
           ~native:(fun env ->
             (), Exchange.all_neighbors ~env g ~payload_bits:9)
           ~classic:(fun env ->
             (), Classic.Exchange.all_neighbors ~env g ~payload_bits:9))

let test_det_dsf_flat_e2e () =
  (* Full solve: every subroutine on the flat engine must reproduce the
     same solve on the seed loop bit for bit. *)
  let r = rng 77 in
  let g = Gen.random_connected r ~n:60 ~extra_edges:60 ~max_w:12 in
  let labels = Gen.spread_labels r g ~t:12 ~k:4 in
  let inst = Instance.make_ic g labels in
  let run () =
    let res = Dsf_core.Det_dsf.run inst in
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
  Alcotest.(check bool) "flat = reference" true (base = run ())

(* Edge weights near 2^50 on 64 nodes: the packed labels need more than
   62 bits, so Bellman-Ford's port declines and its classic protocol is
   the one that runs — lossless and hardened under chaos — and both must
   land on Dijkstra's distances. *)
let test_bellman_ford_wide_fallback () =
  let r = rng 5050 in
  let g = Gen.random_connected r ~n:64 ~extra_edges:64 ~max_w:12 in
  let weight_of eid = (1 lsl 50) + (Graph.edge g eid).Graph.w in
  let sources = [ 0, 0 ] in
  Alcotest.(check bool) "port declines" true
    (Option.is_none (Bellman_ford.flat_protocol ~weight_of g ~sources));
  let wide =
    Graph.make ~n:(Graph.n g)
      (Array.to_list (Graph.edges g)
      |> List.map (fun (e : Graph.edge) -> e.u, e.v, weight_of e.id))
  in
  let expected = fst (Paths.dijkstra wide ~src:0) in
  let dist env = (fst (Bellman_ford.run ~weight_of ~env g ~sources)).dist in
  check Alcotest.(array int) "lossless = Dijkstra" expected
    (dist Sim.default_env);
  let chaos = Fault.chaos (chaos_plan 7 g) in
  check Alcotest.(array int) "chaos = Dijkstra" expected
    (dist { Sim.default_env with network = Sim.Chaos chaos })

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
        Alcotest.test_case "observer prefix before a send error" `Quick
          test_observer_prefix_on_error;
        Alcotest.test_case "Bellman-Ford wide-label fallback" `Quick
          test_bellman_ford_wide_fallback;
      ] );
  ]
