(* Dynamic node-locality sanitizer (Sim.run_flat with [env.sanitize]): the
   racy fixture's write to another node's state must abort with a
   structured Sanitizer_violation, an emit closure smuggled out of its step
   must be caught, and — the other half of the contract — a clean protocol
   must run bit-identically with the sanitizer on and off (states, stats),
   faults included.  See the "Static analysis" section of
   HACKING.md for how this pairs with the typed domain-race lint rule. *)

open Dsf_graph
open Dsf_congest
module Racy = Dsf_lint_fixtures.Racy_flat

let check = Alcotest.check
let env ?(network = Sim.Lossless) sanitize =
  { Sim.default_env with network; sanitize }

let test_racy_fixture_trips () =
  let g = Gen.path 4 in
  let n = Graph.n g in
  (* Unsanitized, the racy protocol terminates quietly in one round (node
     0 steps once, mutating idle node 1's aliased state on the way): the
     race is silent data corruption, which is the point of the oracle. *)
  Racy.counter := 0;
  let states, stats = Sim.run_flat ~env:(env false) g (Racy.racy_protocol ~n) in
  check Alcotest.int "one round unsanitized" 1 stats.Sim.rounds;
  check Alcotest.int "node 0 stepped once" 1 !Racy.counter;
  check Alcotest.int "node 1's state was corrupted" 2 states.(1).Racy.x;
  (* Sanitized, the same run aborts at the first barrier with the victim
     node identified. *)
  Racy.counter := 0;
  match Sim.run_flat ~env:(env true) g (Racy.racy_protocol ~n) with
  | exception Sim.Sanitizer_violation v ->
      check Alcotest.string "kind" "idle-state-write" v.Sim.sv_kind;
      check Alcotest.int "victim node" 1 v.Sim.sv_node;
      check Alcotest.int "round" 0 v.Sim.sv_round;
      let rendered = Printexc.to_string (Sim.Sanitizer_violation v) in
      check Alcotest.bool "registered printer renders the record" true
        (String.length rendered >= 4 && String.sub rendered 0 4 = "Sim.")
  | _ -> Alcotest.fail "sanitizer did not fire on the racy fixture"

let test_escaped_emit_trips () =
  (* An emit closure stashed in round 0 and fired from outside any step
     (here: the omniscient halt callback, which runs at the barrier) is
     the "smuggled closure" case the static rule cannot prove absent. *)
  let g = Gen.path 4 in
  let stash = ref None in
  let fp : (int, int) Sim.flat_protocol =
    {
      fp_init = (fun _ -> 0);
      fp_step =
        (fun _ ~round:_ st ~inbox:_ ~emit ->
          stash := Some emit;
          st);
      fp_is_done = (fun _ -> false);
      fp_msg_bits = (fun _ -> 1);
    }
  in
  let halt _ =
    (match !stash with Some emit -> emit ~dst:0 0 | None -> ());
    false
  in
  match Sim.run_flat ~env:(env true) ~halt g fp with
  | exception Sim.Sanitizer_violation v ->
      check Alcotest.string "kind" "emit-outside-step" v.Sim.sv_kind
  | _ -> Alcotest.fail "sanitizer did not catch the escaped emit closure"

let test_clean_run_bit_identical () =
  (* Every sanitizer check is read-only, so a clean flat protocol (BFS,
     the native exemplar) must produce bit-identical states and stats
     with the sanitizer armed. *)
  let g =
    Gen.random_connected (Dsf_util.Rng.create 42) ~n:257 ~extra_edges:300
      ~max_w:8
  in
  let n = Graph.n g in
  let root = Bfs.max_id_root g in
  let st_off, stats_off =
    Sim.run_flat ~env:(env false) g (Bfs.flat_protocol ~n ~root)
  in
  let st_on, stats_on =
    Sim.run_flat ~env:(env true) g (Bfs.flat_protocol ~n ~root)
  in
  check Alcotest.bool "states identical" true (st_on = st_off);
  check Alcotest.bool "stats identical" true (stats_on = stats_off)

let test_clean_faulted_run_bit_identical () =
  (* Fault injection exercises the other sanctioned write path (crash
     restarts re-init a node's state) plus dropped-mail inbox clearing;
     the sanitizer must stay silent and change nothing. *)
  let g = Gen.path 16 in
  let n = Graph.n g in
  let run sanitize =
    let plan = Fault.plan ~drop:0.3 ~crashes:[ 3, 2, 4 ] ~seed:7 () in
    Sim.run_flat
      ~env:(env ~network:(Sim.Faults (Fault.instantiate plan)) sanitize)
      g (Bfs.flat_protocol ~n ~root:0)
  in
  let off = run false in
  let on_ = run true in
  check Alcotest.bool "faulted run identical under sanitizer" true (on_ = off)

let suites =
  [
    ( "sanitizer",
      [
        Alcotest.test_case "racy fixture trips idle-state-write" `Quick
          test_racy_fixture_trips;
        Alcotest.test_case "escaped emit closure is caught" `Quick
          test_escaped_emit_trips;
        Alcotest.test_case "clean run bit-identical" `Quick
          test_clean_run_bit_identical;
        Alcotest.test_case "clean faulted run bit-identical" `Quick
          test_clean_faulted_run_bit_identical;
      ] );
  ]
