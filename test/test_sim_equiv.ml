(* Differential tests for the production engine: Sim.run_flat (skip idle
   nodes, arena delivery) must be observationally identical to
   Sim.run_reference (the seed loop that steps every node every round) —
   same stats, same final states, same results — on randomized graphs and
   protocols that keep the done-step no-op contract.  Every native flat port
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

let faults_network = function
  | Some f -> Sim.Faults f
  | None -> Sim.Lossless

(* A lossless broadcast's log (every send a delivery, [~bits] naming
   the item) shows each non-root node receiving exactly [items], in order,
   from its tree parent, and the root receiving nothing. *)
let broadcast_delivered ~(tree : Bfs.tree) ~items log =
  let got = Array.map (fun _ -> []) tree.Bfs.parent in
  List.iter
    (fun (src, dst, bits) -> got.(dst) <- got.(dst) @ [ src, bits ])
    (Flight.sends_of_string log);
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

(* The unit-suite flood protocol, done once it has relayed: exercises run
   vs run_reference directly (not through the engine shim). *)
type flood_state = { heard : int option; relayed : bool }

let flood_protocol root : (flood_state, unit) Classic.protocol =
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
  }

let prop_flood_equiv =
  QCheck.Test.make ~name:"run = run_reference (flood, sparse wake)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let s1, t1 = Classic.run g (flood_protocol root) in
      let s2, t2 = Classic.run_reference g (flood_protocol root) in
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
        both (fun () ->
            Sim.measure (fun env -> Bellman_ford.run ~env g ~sources))
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
      let tree = Bfs.build g ~root:(Dsf_util.Rng.int r n) in
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
            Sim.measure (fun env ->
                Pipeline.filtered_upcast ~env g ~tree ~vn ~pre:[] ~items
                  ~cmp:compare ~bits:(fun _ -> 16)))
      in
      acc1 = acc2 && stats_eq t1 t2)

let prop_tree_ops_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (upcast / broadcast / aggregate)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let tree = Bfs.build g ~root:(seed mod n) in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      let (up1, ut1), (up2, ut2) =
        both (fun () ->
            Sim.measure (fun env ->
                Tree_ops.upcast ~env g ~tree ~items:(fun v -> [ v; v + n ])
                  ~bits))
      in
      let items = [ 1; 2; 3 ] in
      let (((), bt1), bl1), (((), bt2), bl2) =
        both (fun () ->
            Flight.record (fun env ->
                Sim.measure ~env (fun env ->
                    Tree_ops.broadcast ~env g ~tree ~items ~bits:Fun.id)))
      in
      let (ag1, at1), (ag2, at2) =
        both (fun () ->
            Sim.measure (fun env ->
                Tree_ops.aggregate ~env g ~tree ~value:Fun.id ~combine:( + )
                  ~bits))
      in
      up1 = up2 && stats_eq ut1 ut2
      && stats_eq bt1 bt2 && bl1 = bl2
      && broadcast_delivered ~tree ~items bl1
      && ag1 = ag2 && stats_eq at1 at2)

(* Coloring's two phases act by the round number and report done only
   after their last scheduled round, so the flat engine steps every node
   the reference loop's steps change: colors, matching, stats and flight
   log must all agree, on random graphs and on a path. *)
let prop_coloring_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (three-coloring / matching)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let agree g =
        let parent = (Bfs.build g ~root:(seed mod Graph.n g)).Bfs.parent in
        let leg f () = Flight.record (fun env -> Sim.measure ~env f) in
        let c1, c2 =
          both (leg (fun env -> Coloring.three_color ~env g ~parent))
        in
        let m1, m2 =
          both (leg (fun env -> Coloring.maximal_matching ~env g ~parent))
        in
        c1 = c2 && m1 = m2
      in
      agree (random_graph seed) && agree (Gen.path (2 + (seed mod 40))))

let prop_bfs_leader_exchange_equiv =
  QCheck.Test.make
    ~name:"run = run_reference (BFS / leader / exchange)" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let (tr1, bt1), (tr2, bt2) =
        both (fun () ->
            Sim.measure (fun env ->
                Bfs.build ~env g ~root:(seed mod Graph.n g)))
      in
      let (le1, lt1), (le2, lt2) =
        both (fun () -> Sim.measure (fun env -> Leader.elect ~env g))
      in
      let ((), ex1), ((), ex2) =
        both (fun () ->
            Sim.measure (fun env ->
                Exchange.all_neighbors ~env g ~payload_bits:9))
      in
      tr1 = tr2 && stats_eq bt1 bt2 && le1 = le2 && stats_eq lt1 lt2
      && stats_eq ex1 ex2)

let prop_telemetry_transparent =
  QCheck.Test.make
    ~name:"telemetry never perturbs a run (both engines)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      (* The hook only observes: states and stats of an instrumented run
         must be bit-identical to the bare run — on the production engine
         and the reference loop alike. *)
      let env telemetry = { Sim.default_env with telemetry } in
      let record_flat telemetry =
        Classic.run ~env:(env telemetry) g (flood_protocol root)
      in
      let record_reference telemetry =
        Classic.run_reference ~env:(env telemetry) g (flood_protocol root)
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
      (* States, stats AND flight logs must all coincide: an empty
         plan never fires, so the fault-injecting engine path has to be
         indistinguishable from the fault-free one. *)
      let record faults =
        Flight.record ~network:(faults_network faults) (fun env ->
            Classic.run ~env g (flood_protocol root))
      in
      record None = record (Some (Fault.instantiate Fault.empty)))

(* --------------------------------------------------------------- corners *)

let test_single_node () =
  let g = Graph.make ~n:1 [] in
  let (s1, t1), (s2, t2) = both (fun () -> Classic.run g (flood_protocol 0)) in
  ignore s1;
  ignore s2;
  check Alcotest.int "rounds" t2.Sim.rounds t1.Sim.rounds;
  Alcotest.(check bool) "stats equal" true (stats_eq t1 t2)

let test_round_limit_equiv () =
  (* Both engines must raise the same Round_limit on a protocol that never
     quiesces — round, stats snapshot and post-mortem window — on both
     sides of the window (a run that is not recording stages sends only
     in the last [postmortem_window] rounds before the limit).  The
     window must hold exactly the sends of the flight log's last rounds —
     every send, dropped or not, in send order — lossless, under a
     drop/duplicate plan, which the reference loop does not run, and
     hardened under the same plan as a chaos network. *)
  let g = random_graph 31_337 in
  let chatty : (unit, int) Classic.protocol =
    {
      init = (fun _ -> ());
      step =
        (fun view ~round st ~inbox:_ ->
          ( st,
            Array.to_list view.Sim.nbrs
            |> List.filter_map (fun (nb, _, _) ->
                   if (round + view.Sim.node + nb) mod 3 = 0 then None
                   else Some (nb, round + nb)) ));
      is_done = (fun () -> false);
      msg_bits = (fun m -> 1 + (m mod 5));
    }
  in
  let abort_of ?network run =
    let r, env = Flight.env ?network () in
    match run env with
    | exception Sim.Round_limit a -> a, Flight.events r
    | _ -> Alcotest.fail "expected a round-limit abort"
  in
  (* The ring the flight log implies: one entry per round of the window,
     the sends recorded after that round's marker, in send order.  The
     log holds one run, so its round markers are the run's rounds. *)
  let window_of ~max_rounds events =
    let lo = max 0 (max_rounds - Sim.postmortem_window) in
    let sent = Array.make max_rounds [] in
    let round = ref (-1) in
    List.iter
      (function
        | Recorder.Round r -> round := r
        | Recorder.Send { src; dst; bits; _ } ->
            sent.(!round) <- (src, dst, bits) :: sent.(!round)
        | _ -> ())
      events;
    List.init (max_rounds - lo) (fun i -> lo + i, List.rev sent.(lo + i))
  in
  let abort = Alcotest.testable (fun ppf a -> Sim.pp_abort ppf a) ( = ) in
  let plan = Fault.plan ~drop:0.2 ~duplicate:0.2 ~seed:5 () in
  let faults = Sim.Faults (Fault.instantiate plan) in
  List.iter
    (fun max_rounds ->
      let name what = Printf.sprintf "max_rounds=%d: %s" max_rounds what in
      let flat, log =
        abort_of (fun env -> Classic.run ~max_rounds ~env g chatty)
      in
      let reference, _ =
        abort_of (fun env -> Classic.run_reference ~max_rounds ~env g chatty)
      in
      check abort (name "flat = reference") reference flat;
      check Alcotest.int (name "limit") max_rounds flat.Sim.at_round;
      check Alcotest.int (name "log rounds") max_rounds (Flight.rounds log);
      Alcotest.(check bool) (name "ring = log window") true
        (flat.Sim.recent = window_of ~max_rounds log);
      let lossy, log =
        abort_of ~network:faults (fun env -> Classic.run ~max_rounds ~env g chatty)
      in
      check Alcotest.int (name "faults: limit") max_rounds lossy.Sim.at_round;
      (* The plan must fire, or this leg is the lossless one again; one
         round sends too few messages to count on both fates. *)
      Alcotest.(check bool) (name "faults: drops and copies happen") true
        (max_rounds < 7
        || lossy.Sim.snapshot.dropped > 0 && lossy.Sim.snapshot.duplicated > 0);
      Alcotest.(check bool) (name "faults: ring = log window") true
        (lossy.Sim.recent = window_of ~max_rounds log);
      let hardened, log =
        abort_of ~network:(Sim.Chaos plan) (fun env ->
            Fault.sim_run ~max_rounds ~env g (Classic.to_flat chatty))
      in
      check Alcotest.int (name "chaos: limit") max_rounds
        hardened.Sim.at_round;
      Alcotest.(check bool) (name "chaos: ring = log window") true
        (hardened.Sim.recent = window_of ~max_rounds log))
    [ 1; 7; 8; 9; 40 ]

let test_halt_equiv () =
  let g = Gen.path 4 in
  let counting : (int, unit) Classic.protocol =
    {
      init = (fun _ -> 0);
      step =
        (fun view ~round:_ c ~inbox:_ ->
          ( c + 1,
            Array.to_list view.Sim.nbrs |> List.map (fun (nb, _, _) -> nb, ()) ));
      is_done = (fun _ -> false);
      msg_bits = (fun () -> 1);
    }
  in
  let halt sts = sts.(0) >= 4 in
  let (s1, t1), (s2, t2) = both (fun () -> Classic.run ~halt g counting) in
  check Alcotest.(array int) "states" s2 s1;
  Alcotest.(check bool) "stats equal" true (stats_eq t1 t2)

let test_scheduler_skips_idle () =
  (* A protocol that is done from the start and never sends: the
     production engine must not step anyone (states stay at init), while
     the reference engine steps everyone once.  Stats agree anyway — this
     is exactly the contract boundary the scheduling rule describes. *)
  let g = Gen.grid ~rows:3 ~cols:3 in
  let lazybones : (int, unit) Classic.protocol =
    {
      init = (fun _ -> 0);
      step = (fun _ ~round:_ c ~inbox:_ -> c + 1, []);
      is_done = (fun _ -> true);
      msg_bits = (fun () -> 1);
    }
  in
  let s_flat, t_flat = Classic.run g lazybones in
  let s_ref, t_ref = Classic.run_reference g lazybones in
  Array.iter (fun c -> check Alcotest.int "never stepped" 0 c) s_flat;
  Array.iter (fun c -> check Alcotest.int "stepped once" 1 c) s_ref;
  Alcotest.(check bool) "stats still equal" true (stats_eq t_flat t_ref)

let test_log_order_identical () =
  (* Both engines must record the same flight log, so the same
     (src, dst, bits) sequence — traces and cut meters rely on it. *)
  let g = random_graph 424_242 in
  let sssp () =
    snd (Flight.record (fun env -> Bellman_ford.sssp ~env g ~src:0))
  in
  let l1 = sssp () in
  let l2 = with_reference sssp in
  check Alcotest.int "same sends"
    (List.length (Flight.sends_of_string l2))
    (List.length (Flight.sends_of_string l1));
  check Alcotest.string "same log" l2 l1

let test_send_error_both_engines () =
  (* Node 1 sends to both path neighbours, then to node 3, which is not
     one: the run raises the same error on both engines. *)
  let g = Gen.path 4 in
  let outbox v = if v = 1 then [ 0, (); 2, (); 3, () ] else [] in
  let proto : (unit, unit) Classic.protocol =
    {
      init = (fun _ -> ());
      step = (fun view ~round:_ () ~inbox:_ -> (), outbox view.Sim.node);
      is_done = (fun () -> false);
      msg_bits = (fun () -> 1);
    }
  in
  let native : (unit, unit) Sim.flat_protocol =
    {
      fp_init = (fun _ -> ());
      fp_step =
        (fun view ~round:_ () ~inbox:_ ~emit ->
          List.iter (fun (dst, m) -> emit ~dst m) (outbox view.Sim.node));
      fp_is_done = (fun () -> false);
      fp_msg_bits = (fun () -> 1);
    }
  in
  let raises name run =
    match run () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        check Alcotest.string name "Sim.run_flat: message to non-neighbor" msg
  in
  raises "reference" (fun () -> Classic.run_reference g proto);
  raises "flat" (fun () -> Sim.run_flat g native)

(* ------------------------------------------------------------ flat engine *)

(* Capture a run as a comparable value: states, stats and the flight
   log on success, the full abort post-mortem on Round_limit (both sides
   of a differential must stall identically too). *)
let capture ?network run =
  Flight.record ?network (fun env ->
      match run env with
      | s, t -> Ok (s, t)
      | exception Sim.Round_limit a -> Error a)

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
        capture ~network:(Sim.Faults (Fault.instantiate plan)) run
      in
      leg (fun env -> Classic.run ~max_rounds:300 ~env g (flood_protocol root))
      = leg (fun env ->
            Sim.run_flat ~max_rounds:300 ~env g (flood_flat root)))

let prop_flat_equiv_lossless =
  QCheck.Test.make
    ~name:"adapter = native port = reference (lossless, telemetry on)"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let root = seed mod Graph.n g in
      let adapter = capture (fun env -> Classic.run ~env g (flood_protocol root)) in
      adapter = capture (fun env -> Sim.run_flat ~env g (flood_flat root))
      && adapter
         = capture (fun env -> Classic.run_reference ~env g (flood_protocol root)))

(* Dense rounds: every node that hears mail relays it, with one less
   hop to live, to a scrambled subset of its neighbours in a scrambled
   order, so nearly every node is a recipient in every round and the
   round's recipients reach the engine out of order.  All nodes are done
   after their round-0 kick-off, so the next active list is exactly the
   recipients, rebuilt by the dense scan in the busy rounds and by the
   sort and merge as the relay dies out.  The state folds each inbox in
   delivery order, so a misordered inbox shows in the final states as
   well as in the log. *)
type dense_state = { started : bool; digest : int }

let dense_flat ~ttl : (dense_state, int) Sim.flat_protocol =
  let mix v round nb = Hashtbl.hash (v, round, nb) in
  let relay view ~round ~emit hops =
    let v = view.Sim.node in
    Array.to_list view.Sim.nbrs
    |> List.filter_map (fun (nb, _, _) ->
           let h = mix v round nb in
           if h land 3 = 0 then None else Some (h, nb))
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (_, nb) -> emit ~dst:nb hops)
  in
  {
    fp_init = (fun _ -> { started = false; digest = 0 });
    fp_step =
      (fun view ~round st ~inbox ~emit ->
        let digest = ref st.digest and hops = ref 0 in
        for i = 0 to Sim.inbox_len inbox - 1 do
          let h = Sim.inbox_msg inbox i in
          digest :=
            ((!digest * 31) + (Sim.inbox_src inbox i * 7) + h) land 0xFFFFFF;
          hops := max !hops h
        done;
        if not st.started then relay view ~round ~emit ttl
        else if !hops > 1 then relay view ~round ~emit (!hops - 1);
        { started = true; digest = !digest });
    fp_is_done = (fun st -> st.started);
    fp_msg_bits = (fun h -> Dsf_util.Bitsize.int_bits (max 1 h));
  }

let prop_flat_dense_rounds =
  QCheck.Test.make
    ~name:"run_flat = run_reference (dense rounds, scrambled recipients)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let n = 20 + Dsf_util.Rng.int r 100 in
      let g = Gen.random_connected r ~n ~extra_edges:(3 * n) ~max_w:5 in
      let p = dense_flat ~ttl:(4 + (seed mod 8)) in
      let flat = capture (fun env -> Sim.run_flat ~env g p) in
      (match flat with
      | Ok (_, t), _ -> t.Sim.messages > 4 * n
      | Error _, _ -> false)
      && flat
         = capture (fun env -> Sim.run_reference ~env g p))

(* Both barrier regimes: the flat engine rebuilds the next active list by
   one scan of its stamps when a round's recipients reach n / 8, and by a
   sort and merge below that.  A pipelined broadcast from a lollipop's
   clique crosses the threshold within one run: while the root sends,
   every clique node receives each round (dense), and once its queue is
   empty only the wavefront down the tail does (sparse).  Each node folds
   its inbox into a digest in delivery order, so a node left off the
   active list, or stepped twice, shows in the final states. *)
type pipe_state = { pending : int list; digest : int }

let pipe_flat ~(tree : Bfs.tree) ~items : (pipe_state, int) Sim.flat_protocol =
  {
    fp_init =
      (fun view ->
        let root = view.Sim.node = tree.root in
        { pending = (if root then List.init items Fun.id else []); digest = 0 });
    fp_step =
      (fun view ~round:_ st ~inbox ~emit ->
        let digest = ref st.digest and got = ref [] in
        for i = 0 to Sim.inbox_len inbox - 1 do
          let x = Sim.inbox_msg inbox i in
          digest :=
            ((!digest * 31) + (Sim.inbox_src inbox i * 7) + x) land 0xFFFFFF;
          got := x :: !got
        done;
        match st.pending @ List.rev !got with
        | [] -> { pending = []; digest = !digest }
        | x :: rest ->
            List.iter (fun c -> emit ~dst:c x) tree.Bfs.children.(view.Sim.node);
            { pending = rest; digest = !digest });
    fp_is_done = (fun st -> st.pending = []);
    fp_msg_bits = (fun x -> Dsf_util.Bitsize.int_bits (max 1 x));
  }

(* The distinct recipients of each round of a recorded run. *)
let recipients_per_round log =
  let rounds = ref [] and cur = ref None in
  let close () = Option.iter (fun s -> rounds := s :: !rounds) !cur in
  List.iter
    (function
      | Recorder.Round _ ->
          close ();
          cur := Some []
      | Recorder.Send { dst; _ } ->
          cur :=
            Option.map
              (fun s -> if List.mem dst s then s else dst :: s)
              !cur
      | _ -> ())
    (Flight.events_of_string log);
  close ();
  List.rev_map List.length !rounds

let test_barrier_regimes () =
  let lollipop = Gen.lollipop ~clique:64 ~tail:64 in
  let random =
    Gen.random_connected (rng 7) ~n:96 ~extra_edges:96 ~max_w:5
  in
  List.iter
    (fun (name, g, items) ->
      let n = Graph.n g in
      let tree = Bfs.build g ~root:0 in
      let p = pipe_flat ~tree ~items in
      let flat = capture (fun env -> Sim.run_flat ~env g p) in
      check Alcotest.bool (name ^ ": flat = reference") true
        (flat = capture (fun env -> Sim.run_reference ~env g p));
      let counts = recipients_per_round (snd flat) in
      check Alcotest.bool (name ^ ": some round is dense") true
        (List.exists (fun c -> 8 * c >= n) counts);
      check Alcotest.bool (name ^ ": some round is sparse") true
        (List.exists (fun c -> c > 0 && 8 * c < n) counts))
    [ "lollipop, 8 items", lollipop, 8; "lollipop, 3 items", lollipop, 3;
      "random, 12 items", random, 12 ];
  (* A crash plan that drops the down node's mail, on the flat engine,
     against the reference loop running the same crash by hand: while
     down, the node discards its inbox, sends nothing and holds a fresh
     initial state, which is what the engine restarts it from.  The tail's
     first node is down in rounds 2-4, so it and the tail below it miss
     the items that reach it then, in dense rounds of the run. *)
  let g = lollipop in
  let tree = Bfs.build g ~root:0 in
  let p = pipe_flat ~tree ~items:8 in
  let crashed = 64 and lo = 2 and hi = 5 in
  let is_down ~round ~node = node = crashed && round >= lo && round < hi in
  let emulated : (pipe_state * int, int) Sim.flat_protocol =
    {
      fp_init = (fun view -> p.fp_init view, 0);
      fp_step =
        (fun view ~round (st, lost) ~inbox ~emit ->
          if is_down ~round ~node:view.Sim.node then
            p.fp_init view, lost + Sim.inbox_len inbox
          else p.fp_step view ~round st ~inbox ~emit, lost);
      fp_is_done = (fun (st, _) -> p.fp_is_done st);
      fp_msg_bits = p.fp_msg_bits;
    }
  in
  let sends log =
    List.filter
      (function Recorder.Round _ | Recorder.Send _ -> true | _ -> false)
      (Flight.events_of_string log)
  in
  let faults =
    { Sim.on_send = (fun ~round:_ ~src:_ ~dst:_ -> Sim.Deliver);
      down = is_down }
  in
  match
    ( capture ~network:(Sim.Faults faults) (fun env -> Sim.run_flat ~env g p),
      capture (fun env -> Sim.run_reference ~env g emulated) )
  with
  | (Ok (states, t), flat_log), (Ok (emu, e), emu_log) ->
      check Alcotest.bool "crash: states" true (states = Array.map fst emu);
      let lost = Array.fold_left (fun acc (_, l) -> acc + l) 0 emu in
      check Alcotest.bool "crash: mail was dropped" true (lost > 0);
      check Alcotest.bool "crash: stats" true
        (t = { e with Sim.dropped = lost });
      check Alcotest.bool "crash: sends, round by round" true
        (sends flat_log = sends emu_log)
  | _ -> Alcotest.fail "crash: a run hit its round limit"

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
              Classic.run ~max_rounds:20 ~env:(env faults) g (flood_protocol 0)) );
      ( "native",
        fun () ->
          f (fun faults ->
              Sim.run_flat ~max_rounds:20 ~env:(env faults) g (flood_flat 0)) );
    ]
  in
  let lossless_states, lossless = Classic.run_reference g (flood_protocol 0) in
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
   classic list protocol (classic.ml) — result, stats, and flight log —
   with telemetry on, on three networks:
   - lossless, the classic leg on the seed loop (under the reference
     shim) and the port on the flat engine;
   - a duplicate-only fault plan (drop/crash plans can legitimately stall
     an unhardened upcast forever), both on the flat engine;
   - chaos: drops plus one crash window, hardened with each primitive's
     recovery contract, or drops and duplicates without crashes for the
     ports whose mutable tables carry no recovery contract.  The hardened
     stats (rounds, packets, retransmissions) must agree, and the port's
     result must also equal its lossless result. *)
let dup_plan seed = Fault.plan ~duplicate:0.15 ~seed ()

let chaos_plan seed g =
  Fault.plan ~drop:0.1 ~crashes:[ seed mod Graph.n g, 2, 5 ] ~seed ()

(* The crash-free chaos plan, for ports whose states hold mutable tables
   and so carry no recovery contract ([~crash:false] below). *)
let lossy_plan seed = Fault.plan ~drop:0.1 ~duplicate:0.05 ~seed ()

(* [native] and [classic] run the primitive on the env they are given;
   [native] returns its result, whose stats {!Sim.measure} reads from the
   env, and [classic] its result with the run's stats.  Their flight logs
   are compared without span markers: the port opens its primitive's
   span (and the measurement its own), the classic oracle none. *)
let native_matches_classic ?(crash = true) ~seed g ~(native : Sim.env -> 'r)
    ~(classic : Sim.env -> 'r * Sim.stats) =
  let dup = Sim.Faults (Fault.instantiate (dup_plan seed)) in
  let chaos =
    Sim.Chaos (if crash then chaos_plan seed g else lossy_plan seed)
  in
  let native env = Sim.measure ~env native in
  let leg ?network f =
    let r, log = Flight.record ?network f in
    r, Flight.unspanned log
  in
  let ((result, _), _) as lossless = leg native in
  let ((hardened, _), _) as chaos_leg = leg ~network:chaos native in
  with_reference (fun () -> leg classic) = lossless
  && leg ~network:dup classic = leg ~network:dup native
  && leg ~network:chaos classic = chaos_leg
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
      let labels r = { r with Bellman_ford.rounds = 0 } in
      native_matches_classic ~seed g
        ~native:(fun env -> labels (Bellman_ford.run ?radius ~env g ~sources))
        ~classic:(fun env ->
          let r, stats = Classic.Bellman_ford.run ?radius ~env g ~sources in
          labels r, stats))

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
      let tree = Bfs.build g ~root:(seed mod n) in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      (* The child-count handshake of [aggregate] dedups child reports by
         sender id (each child reports exactly once, so the sender is its
         own sequence stamp): duplicate-injecting plans leave the state
         trajectory — and the root's total — untouched, so the lossy legs
         compare against each other AND against the lossless sum. *)
      let dup () = Fault.instantiate (dup_plan seed) in
      let items v = [ v; v + n ] in
      let broadcast run env = run env g ~tree ~items:[ 1; 2; 3 ] ~bits:Fun.id in
      (* Repeated items and shared keys exercise both dedup filters. *)
      let dedup_items v = [ v mod 5; v mod 3; v mod 5 ] in
      let key x = x mod 2 in
      native_matches_classic ~seed g
        ~native:(fun env -> Tree_ops.upcast ~env g ~tree ~items ~bits)
        ~classic:(fun env -> Classic.Tree_ops.upcast ~env g ~tree ~items ~bits)
      && List.for_all
           (fun per_key ->
             native_matches_classic ~seed g
               ~native:(fun env ->
                 Tree_ops.upcast_dedup ~env ~per_key g ~tree
                   ~items:dedup_items ~key ~bits)
               ~classic:(fun env ->
                 Classic.Tree_ops.upcast_dedup ~env ~per_key g ~tree
                   ~items:dedup_items ~key ~bits))
           [ 1; 2 ]
      && native_matches_classic ~seed g
           ~native:(broadcast (fun env -> Tree_ops.broadcast ~env))
           ~classic:(fun env ->
             (), broadcast (fun env -> Classic.Tree_ops.broadcast ~env) env)
      && native_matches_classic ~seed g
           ~native:(fun env ->
             Tree_ops.aggregate ~env g ~tree ~value:Fun.id ~combine:( + ) ~bits)
           ~classic:(fun env ->
             Classic.Tree_ops.aggregate ~env g ~tree ~value:Fun.id
               ~combine:( + ) ~bits)
      && Tree_ops.aggregate
           ~env:{ Sim.default_env with network = Sim.Faults (dup ()) }
           g ~tree ~value:Fun.id ~combine:( + ) ~bits
         = Tree_ops.aggregate g ~tree ~value:Fun.id ~combine:( + ) ~bits)

let prop_flat_native_pipeline =
  QCheck.Test.make
    ~name:"filtered upcast native flat = classic (faults, stop)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 17) in
      let tree = Bfs.build g ~root:(Dsf_util.Rng.int r n) in
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
      (* Pre-connected pairs exercise the shared union-find template, and
         item-dependent sizes the size each item carries from its holder. *)
      let pre =
        List.init (2 + Dsf_util.Rng.int r 2) (fun _ ->
            Dsf_util.Rng.int r vn, Dsf_util.Rng.int r vn)
      in
      let bits (it : int Pipeline.item) = 8 + it.Pipeline.key in
      let native ?stop_at_root env =
        Pipeline.filtered_upcast ~env ?stop_at_root g ~tree ~vn ~pre ~items
          ~cmp:compare ~bits
      and classic ?stop_at_root env =
        Classic.Pipeline.filtered_upcast ~env ?stop_at_root g ~tree ~vn ~pre
          ~items ~cmp:compare ~bits
      in
      let stop acc = List.length acc >= 3 in
      native_matches_classic ~seed g ~native:(native ?stop_at_root:None)
        ~classic:(classic ?stop_at_root:None)
      && native_matches_classic ~seed g ~native:(native ~stop_at_root:stop)
           ~classic:(classic ~stop_at_root:stop))

let prop_flat_native_select_exchange =
  QCheck.Test.make
    ~name:"token flood + exchange native flat = classic (faults)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 19) in
      let tree = Bfs.build g ~root:(seed mod n) in
      let parent = tree.Bfs.parent in
      let seeds = Array.init n (fun _ -> Dsf_util.Rng.int r 3 = 0) in
      native_matches_classic ~seed g
        ~native:(fun env -> Dsf_core.Select.token_flood ~env g ~parent ~seeds)
        ~classic:(fun env -> Classic.Select.token_flood ~env g ~parent ~seeds)
      && native_matches_classic ~seed g
           ~native:(fun env -> Exchange.all_neighbors ~env g ~payload_bits:9)
           ~classic:(fun env ->
             (), Classic.Exchange.all_neighbors ~env g ~payload_bits:9))

(* Sorted bindings of a table: a comparable image of a mutable state. *)
let bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let prop_flat_native_le_list =
  QCheck.Test.make ~name:"LE lists native flat = classic (faults)" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      native_matches_classic ~crash:false ~seed g
        ~native:(fun env -> Dsf_embed.Le_list.build ~env (rng seed) g)
        ~classic:(fun env -> Classic.Le_list.build ~env (rng seed) g))

let prop_flat_native_level_routing =
  QCheck.Test.make
    ~name:"level routing + backtrace native flat = classic (faults)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module LR = Dsf_core.Level_routing in
      let g = random_graph seed in
      let n = Graph.n g in
      let vt = Dsf_embed.Virtual_tree.build (rng seed) ~wd_bound:(Dsf_graph.Paths.diameter_weighted g) g in
      let r = rng (seed + 23) in
      (* A few labels per holder, each routed to one of the holder's
         virtual-tree ancestors; label collisions exercise the filter. *)
      let origins_tbl =
        Array.init n (fun v ->
            if Dsf_util.Rng.int r 3 = 0 then []
            else
              List.init (1 + Dsf_util.Rng.int r 2) (fun _ ->
                  let lvl = Dsf_util.Rng.int r (vt.levels + 1) in
                  Dsf_util.Rng.int r 4, vt.ancestors.(v).(lvl)))
      in
      let origins v = origins_tbl.(v) in
      let route states =
        Array.map
          (fun (st : LR.route_state) ->
            bindings st.known, st.unsent, st.lhat, st.marked)
          states
      in
      let rstates = LR.route_phase g vt ~origins in
      let tables v = rstates.(v).LR.known in
      (* Each target ships its labels back along its smallest received
         chain. *)
      let bundles v =
        let st = rstates.(v) in
        match
          List.filter_map
            (fun (((_, w) as lw), sender) ->
              if w = v && sender >= 0 then Some lw else None)
            (bindings st.known)
        with
        | lw :: _ -> List.map (fun l -> { LR.route = lw; payload = l }) st.lhat
        | [] -> []
      in
      let back states =
        Array.map (fun (st : LR.back_state) -> st.b_queue, st.b_l) states
      in
      native_matches_classic ~crash:false ~seed g
        ~native:(fun env -> route (LR.route_phase ~env g vt ~origins))
        ~classic:(fun env ->
          let states, stats =
            Classic.Level_routing.route_phase ~env g vt ~origins
          in
          route states, stats)
      && native_matches_classic ~seed g
           ~native:(fun env -> back (LR.backtrace_phase ~env g ~tables ~bundles))
           ~classic:(fun env ->
             let states, stats =
               Classic.Level_routing.backtrace_phase ~env g ~tables ~bundles
             in
             back states, stats))

let prop_flat_native_f6 =
  QCheck.Test.make ~name:"F6 mark/unmark native flat = classic (faults)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 29) in
      let parent = (Bfs.build g ~root:(seed mod n)).Bfs.parent in
      let labels_tbl =
        Array.init n (fun _ ->
            List.filter (fun _ -> Dsf_util.Rng.int r 3 = 0) [ 0; 1; 2; 3 ])
      in
      let labels v = labels_tbl.(v) in
      native_matches_classic ~crash:false ~seed g
        ~native:(fun env -> Dsf_core.F6_protocol.run ~env g ~parent ~labels)
        ~classic:(fun env -> Classic.F6.run ~env g ~parent ~labels))

let prop_flat_native_label_flood =
  QCheck.Test.make ~name:"pruning label flood native flat = classic (faults)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module P = Dsf_core.Pruning in
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 31) in
      let tree = Bfs.build g ~root:(seed mod n) in
      (* Nodes in [nc] clusters joined by a random cluster tree: cluster
         [i > 0] hangs off a smaller one through forest edge [i - 1]. *)
      let nc = 2 + Dsf_util.Rng.int r 4 in
      let fc_adj = Hashtbl.create 8 in
      let link c c' i =
        Hashtbl.replace fc_adj c
          ((c', i) :: Option.value ~default:[] (Hashtbl.find_opt fc_adj c))
      in
      for i = 1 to nc - 1 do
        let j = Dsf_util.Rng.int r i in
        link i j (i - 1);
        link j i (i - 1)
      done;
      let structure = { P.fc_adj; n_fc = nc - 1 } in
      let initial_tbl =
        Array.init n (fun v ->
            if Dsf_util.Rng.int r 2 = 0 then []
            else [ v mod nc, Dsf_util.Rng.int r 4 ])
      in
      let initial v = initial_tbl.(v) in
      let facts (f : P.facts) = bindings f.lc, bindings f.le in
      let decode states =
        Array.map
          (fun (st : P.node_state) -> facts st.mine, facts st.shadow, st.log)
          states
      in
      native_matches_classic ~crash:false ~seed g
        ~native:(fun env ->
          decode (P.label_flood ~env g ~tree ~structure ~initial))
        ~classic:(fun env ->
          let states, stats =
            Classic.Pruning.label_flood ~env g ~tree ~structure ~initial
          in
          decode states, stats))

(* The no-op contract of sim.mli's scheduling rule, checked on the step
   itself: every protocol promises that a done node stepped with an empty
   inbox emits nothing and keeps its state.
   After a lossless run every final state is done; re-step each one with
   an empty inbox and compare the state's structural hash (the
   sanitizer's) before and after.  Hands back the final states. *)
let wake_contract g (p : ('s, 'm) Sim.flat_protocol) =
  let states, stats = Sim.run_flat g p in
  let hash st = Hashtbl.hash_param 128 512 st in
  let holds v st =
    let before = hash st and sent = ref 0 in
    let view = { Sim.node = v; n = Graph.n g; nbrs = Graph.adj g v } in
    let st' =
      p.fp_step view ~round:stats.Sim.rounds st
        ~inbox:(Sim.inbox_of_list [])
        ~emit:(fun ~dst:_ _ -> incr sent)
    in
    p.fp_is_done st && !sent = 0 && hash st' = before
  in
  Array.for_all Fun.id (Array.mapi holds states), states

let prop_wake_contract_le_list =
  QCheck.Test.make ~name:"LE lists keep the sparse-wake contract" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let ranks = Dsf_util.Rng.permutation (rng seed) (Graph.n g) in
      fst (wake_contract g (Dsf_embed.Le_list.flat_protocol ~ranks)))

let prop_wake_contract_label_flood =
  QCheck.Test.make ~name:"pruning label flood keeps the sparse-wake contract"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module P = Dsf_core.Pruning in
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 31) in
      let tree = Bfs.build g ~root:(seed mod n) in
      (* [nc] clusters joined in a path by forest edges 0 .. nc-2. *)
      let nc = 2 + Dsf_util.Rng.int r 4 in
      let fc_adj = Hashtbl.create 8 in
      for i = 0 to nc - 1 do
        Hashtbl.replace fc_adj i
          (List.filter
             (fun (c, _) -> c >= 0 && c < nc)
             [ i - 1, i - 1; i + 1, i ])
      done;
      let structure = { P.fc_adj; n_fc = nc - 1 } in
      let initial_tbl =
        Array.init n (fun v ->
            if Dsf_util.Rng.int r 2 = 0 then []
            else [ v mod nc, Dsf_util.Rng.int r 4 ])
      in
      let initial v = initial_tbl.(v) in
      fst
        (wake_contract g (P.label_flood_protocol g ~tree ~structure ~initial)))

let prop_wake_contract_f6 =
  QCheck.Test.make ~name:"F6 mark and unmark keep the sparse-wake contract"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module F6 = Dsf_core.F6_protocol in
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 29) in
      let parent = (Bfs.build g ~root:(seed mod n)).Bfs.parent in
      let labels_tbl =
        Array.init n (fun _ ->
            List.filter (fun _ -> Dsf_util.Rng.int r 3 = 0) [ 0; 1; 2; 3 ])
      in
      let labels v = labels_tbl.(v) in
      let marked, mark_states =
        wake_contract g (F6.mark_protocol g ~parent ~labels)
      in
      marked
      && fst
           (wake_contract g
              (F6.unmark_protocol g ~parent ~labels ~mark_states)))

(* The converse of the no-op contract (sim.mli, "Sparse scheduling"): a
   not-done node stepped with an empty inbox does work.  With the
   sanitizer armed, a lossless run adds each step that breaks it (empty
   inbox, nothing emitted, state hash unchanged) to [sim/idle_steps].
   Three protocols act by the clock instead, and are the stated
   exceptions: Coloring's fixed-schedule stages and
   Tree_ops.upcast_sequential's departure schedule (the ablation
   baseline), both counted below, which also shows the counter is live;
   and Fault.harden's wrapper, whose timers march every round and whose
   runs are never lossless, so nothing of theirs is counted. *)
let idle_steps run =
  let t = Telemetry.create () in
  run { Sim.default_env with telemetry = Some t; sanitize = true };
  Dsf_util.Metrics.counter_value (Telemetry.metrics t) "sim/idle_steps"

let prop_no_idle_steps =
  QCheck.Test.make ~name:"no lib protocol busy-waits (sim/idle_steps = 0)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module P = Dsf_core.Pruning in
      let module LR = Dsf_core.Level_routing in
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 43) in
      let root = seed mod n in
      let tree = Bfs.build g ~root in
      let parent = tree.Bfs.parent in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      let some = Array.init n (fun _ -> Dsf_util.Rng.int r 3 = 0) in
      let mask = Array.init (Graph.m g) (fun _ -> Dsf_util.Rng.int r 3 > 0) in
      let sources = [ root, 0; Dsf_util.Rng.int r n, 3 ] in
      let values v = if some.(v) then Some (v mod 7) else None in
      let labels v = if some.(v) then [ v mod 3 ] else [] in
      let pipeline_items v =
        if some.(v) then [ { Pipeline.key = v; a = v mod 4; b = (v + 1) mod 4 } ]
        else []
      in
      let structure =
        let fc_adj = Hashtbl.create 2 in
        Hashtbl.replace fc_adj 0 [ 1, 0 ];
        Hashtbl.replace fc_adj 1 [ 0, 0 ];
        { P.fc_adj; n_fc = 1 }
      in
      let vt =
        Dsf_embed.Virtual_tree.build (rng seed)
          ~wd_bound:(Paths.diameter_weighted g) g
      in
      let origins v =
        if some.(v) then [ v mod 4, vt.ancestors.(v).(vt.levels) ] else []
      in
      let rstates = LR.route_phase g vt ~origins in
      let runs =
        [
          ("bfs", fun env -> ignore (Bfs.build ~env g ~root));
          ("exchange", fun env -> Exchange.all_neighbors ~env g ~payload_bits:9);
          ("bellman_ford", fun env -> ignore (Bellman_ford.run ~env g ~sources));
          ( "bellman_ford boxed",
            fun env ->
              ignore
                (Fault.sim_run ~env ~recovery:(Fault.immutable ()) g
                   (Bellman_ford.protocol g ~sources)) );
          ("upcast", fun env -> ignore (Tree_ops.upcast ~env g ~tree ~items:labels ~bits));
          ( "upcast_dedup",
            fun env ->
              ignore
                (Tree_ops.upcast_dedup ~env ~per_key:2 g ~tree ~items:labels
                   ~key:Fun.id ~bits) );
          ( "broadcast",
            fun env -> Tree_ops.broadcast ~env g ~tree ~items:[ 1; 2; 3 ] ~bits );
          ( "aggregate",
            fun env ->
              ignore
                (Tree_ops.aggregate ~env g ~tree ~value:Fun.id ~combine:( + ) ~bits) );
          ( "filtered_upcast",
            fun env ->
              ignore
                (Pipeline.filtered_upcast ~env g ~tree ~vn:4 ~pre:[]
                   ~items:pipeline_items ~cmp:compare ~bits:(fun _ -> 8)) );
          ( "gossip_extremum",
            fun env ->
              ignore
                (Component_ops.gossip_extremum ~env g ~mask ~values
                   ~better:( < ) ~bits) );
          ("leader", fun env -> ignore (Leader.elect ~env g));
          ("le_list", fun env -> ignore (Dsf_embed.Le_list.build ~env (rng seed) g));
          ( "token_flood",
            fun env ->
              ignore (Dsf_core.Select.token_flood ~env g ~parent ~seeds:some) );
          ( "f6 mark/unmark",
            fun env -> ignore (Dsf_core.F6_protocol.run ~env g ~parent ~labels) );
          ( "region_bf",
            fun env ->
              let frac_sources =
                List.mapi (fun i (v, d) -> v, Dsf_core.Frac.of_int d, i) sources
              in
              ignore
                (Dsf_core.Region_bf.run ~env g ~sources:frac_sources
                   ~frozen:(Array.make n false)) );
          ( "level routing",
            fun env -> ignore (LR.route_phase ~env g vt ~origins) );
          ( "backtrace",
            fun env ->
              ignore
                (LR.backtrace_phase ~env g
                   ~tables:(fun v -> rstates.(v).LR.known)
                   ~bundles:(fun v ->
                     List.map
                       (fun l -> { LR.route = l, v; payload = l })
                       rstates.(v).LR.lhat)) );
          ( "label flood",
            fun env ->
              ignore
                (P.label_flood ~env g ~tree ~structure ~initial:(fun v ->
                     if some.(v) then [ v mod 2, v mod 3 ] else [])) );
        ]
      in
      List.for_all
        (fun (name, run) ->
          match idle_steps run with
          | 0 -> true
          | k -> QCheck.Test.fail_reportf "%s: %d idle steps" name k)
        runs)

let test_clock_driven_idle_steps () =
  (* The clock-driven exceptions keep their nodes not-done until their
     last scheduled round, so their idle steps show. *)
  let g = Gen.path 12 in
  let tree = Bfs.build g ~root:0 in
  let parent = tree.Bfs.parent in
  let items v = if v mod 4 = 3 then [ v ] else [] in
  Alcotest.(check bool)
    "three_color has idle steps" true
    (idle_steps (fun env -> ignore (Coloring.three_color ~env g ~parent)) > 0);
  Alcotest.(check bool)
    "upcast_sequential has idle steps" true
    (idle_steps (fun env ->
         ignore (Tree_ops.upcast_sequential ~env g ~tree ~items ~bits:Fun.id))
    > 0)

let prop_flat_native_coloring =
  QCheck.Test.make
    ~name:"three-coloring + matching native flat = classic (faults)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let parent = (Bfs.build g ~root:(seed mod Graph.n g)).Bfs.parent in
      native_matches_classic ~seed g
        ~native:(fun env -> Coloring.three_color ~env g ~parent)
        ~classic:(fun env -> Classic.Coloring.three_color ~env g ~parent)
      && native_matches_classic ~seed g
           ~native:(fun env -> Coloring.maximal_matching ~env g ~parent)
           ~classic:(fun env -> Classic.Coloring.maximal_matching ~env g ~parent))

let prop_flat_native_gossip_leader =
  QCheck.Test.make ~name:"gossip + leader native flat = classic (faults)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 37) in
      let mask = Array.init (Graph.m g) (fun _ -> Dsf_util.Rng.int r 3 > 0) in
      let values_tbl =
        Array.init n (fun _ ->
            if Dsf_util.Rng.int r 2 = 0 then None
            else Some (Dsf_util.Rng.int r 50))
      in
      let values v = values_tbl.(v) in
      let better a b = a < b in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      let elected (res : Leader.result) = res.leader, res.agreed in
      native_matches_classic ~seed g
        ~native:(fun env ->
          Component_ops.gossip_extremum ~env g ~mask ~values ~better ~bits)
        ~classic:(fun env ->
          Classic.Component_ops.gossip_extremum ~env g ~mask ~values ~better
            ~bits)
      && native_matches_classic ~seed g
           ~native:(fun env -> elected (Leader.elect ~env g))
           ~classic:(fun env ->
             let res, stats = Classic.Leader.elect ~env g in
             elected res, stats))

let prop_flat_native_upcast_sequential =
  QCheck.Test.make ~name:"sequential upcast native flat = classic (faults)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let tree = Bfs.build g ~root:(seed mod n) in
      let items v = if v mod 3 = 0 then [ v; v + n ] else [] in
      let bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
      native_matches_classic ~seed g
        ~native:(fun env -> Tree_ops.upcast_sequential ~env g ~tree ~items ~bits)
        ~classic:(fun env ->
          Classic.Tree_ops.upcast_sequential ~env g ~tree ~items ~bits))

let prop_flat_native_bellman_ford_boxed =
  QCheck.Test.make ~name:"Bellman-Ford boxed native flat = classic (faults)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g = random_graph seed in
      let n = Graph.n g in
      let r = rng (seed + 41) in
      let sources =
        List.init (1 + Dsf_util.Rng.int r 3) (fun _ ->
            Dsf_util.Rng.int r n, Dsf_util.Rng.int r 5)
      in
      let labels states =
        Array.map
          (fun (st : Bellman_ford.state) -> st.dist, st.src, st.parent, st.hops)
          states
      in
      let run env proto =
        let states, stats =
          Fault.sim_run ~env ~recovery:(Fault.immutable ()) g proto
        in
        labels states, stats
      in
      native_matches_classic ~seed g
        ~native:(fun env ->
          fst (run env (Bellman_ford.protocol g ~sources)))
        ~classic:(fun env ->
          run env (Classic.to_flat (Classic.Bellman_ford.protocol g ~sources))))

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
  let dist env = (Bellman_ford.run ~weight_of ~env g ~sources).dist in
  check Alcotest.(array int) "lossless = Dijkstra" expected
    (dist Sim.default_env);
  check Alcotest.(array int) "chaos = Dijkstra" expected
    (dist { Sim.default_env with network = Sim.Chaos (chaos_plan 7 g) })

let test_flat_adapter_inbox_order () =
  (* The list adapter (Classic.to_flat) must present arrival order exactly
     as the seed loop builds inboxes: senders ascending, send order within a
     sender.  A 2-source flood on a path makes node 2 hear 1 and 3 in the
     same round. *)
  let g = Gen.path 5 in
  let two_roots : (flood_state, unit) Classic.protocol =
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
    ( Classic.run g two_roots,
      Classic.run_reference g two_roots )
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
        qtest prop_coloring_equiv;
        qtest prop_bfs_leader_exchange_equiv;
        qtest prop_telemetry_transparent;
        qtest prop_empty_plan_identity;
        qtest prop_flat_equiv_faults_telemetry;
        qtest prop_flat_equiv_lossless;
        qtest prop_flat_dense_rounds;
        qtest prop_flat_native_bfs;
        qtest prop_flat_native_bellman_ford;
        qtest prop_flat_native_region_bf;
        qtest prop_flat_native_tree_ops;
        qtest prop_flat_native_pipeline;
        qtest prop_flat_native_select_exchange;
        qtest prop_flat_native_le_list;
        qtest prop_flat_native_level_routing;
        qtest prop_flat_native_f6;
        qtest prop_flat_native_label_flood;
        qtest prop_wake_contract_le_list;
        qtest prop_wake_contract_label_flood;
        qtest prop_wake_contract_f6;
        qtest prop_flat_native_coloring;
        qtest prop_flat_native_gossip_leader;
        qtest prop_flat_native_upcast_sequential;
        qtest prop_flat_native_bellman_ford_boxed;
        Alcotest.test_case "fault accounting" `Quick test_fault_accounting;
        Alcotest.test_case "det_dsf end-to-end on the flat engine" `Quick
          test_det_dsf_flat_e2e;
        Alcotest.test_case "flat adapter inbox order" `Quick
          test_flat_adapter_inbox_order;
        Alcotest.test_case "single node" `Quick test_single_node;
        Alcotest.test_case "round limit" `Quick test_round_limit_equiv;
        Alcotest.test_case "halt hook" `Quick test_halt_equiv;
        Alcotest.test_case "skips idle nodes" `Quick test_scheduler_skips_idle;
        Alcotest.test_case "recorded send order" `Quick
          test_log_order_identical;
        Alcotest.test_case "send error on both engines" `Quick
          test_send_error_both_engines;
        Alcotest.test_case "Bellman-Ford wide-label fallback" `Quick
          test_bellman_ford_wide_fallback;
        qtest prop_no_idle_steps;
        Alcotest.test_case "clock-driven protocols' idle steps" `Quick
          test_clock_driven_idle_steps;
        Alcotest.test_case "barrier regimes: dense scan and sparse merge"
          `Quick test_barrier_regimes;
      ] );
  ]
