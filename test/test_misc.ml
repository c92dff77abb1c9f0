(* Small remaining corners: Intmath, Exchange, Certify.pp, and an
   Algorithm 2 threshold worked example. *)

open Dsf_graph
open Dsf_core

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let frac = Alcotest.testable Frac.pp Frac.equal

(* --------------------------------------------------------------- Intmath *)

let test_intmath_isqrt () =
  List.iter
    (fun (n, want) -> check Alcotest.int (Printf.sprintf "isqrt %d" n) want
        (Dsf_util.Intmath.isqrt n))
    [ 0, 0; 1, 1; 2, 1; 3, 1; 4, 2; 8, 2; 9, 3; 15, 3; 16, 4; 99, 9; 100, 10 ]

let test_intmath_ceil_log2 () =
  List.iter
    (fun (n, want) -> check Alcotest.int (Printf.sprintf "clog2 %d" n) want
        (Dsf_util.Intmath.ceil_log2 n))
    [ 1, 0; 2, 1; 3, 2; 4, 2; 5, 3; 8, 3; 9, 4; 1024, 10; 1025, 11 ]

let test_intmath_ceil_div () =
  check Alcotest.int "7/2" 4 (Dsf_util.Intmath.ceil_div 7 2);
  check Alcotest.int "8/2" 4 (Dsf_util.Intmath.ceil_div 8 2);
  check Alcotest.int "0/5" 0 (Dsf_util.Intmath.ceil_div 0 5)

let prop_isqrt =
  QCheck.Test.make ~name:"isqrt is the floor square root" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun n ->
      let r = Dsf_util.Intmath.isqrt n in
      r * r <= n && (r + 1) * (r + 1) > n)

(* -------------------------------------------------------------- Exchange *)

let test_exchange_counts () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let (), stats =
    Dsf_congest.Sim.measure (fun env ->
        Dsf_congest.Exchange.all_neighbors ~env g ~payload_bits:5)
  in
  (* One message per edge direction. *)
  check Alcotest.int "messages = 2m" (2 * Graph.m g) stats.Dsf_congest.Sim.messages;
  check Alcotest.int "bits" (5 * 2 * Graph.m g) stats.Dsf_congest.Sim.total_bits;
  Alcotest.(check bool) "couple of rounds" true (stats.Dsf_congest.Sim.rounds <= 3)

(* ------------------------------------------------------------ Certify.pp *)

let test_certify_pp () =
  let g = Gen.path 3 in
  let inst = Instance.make_ic g [| 0; -1; 0 |] in
  let sol = Array.make 2 true in
  match Certify.check ~dual:2.0 inst ~solution:sol with
  | Ok report ->
      let s = Format.asprintf "%a" Certify.pp report in
      let contains sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions weight" true (contains "weight=2");
      Alcotest.(check bool) "mentions proven ratio" true (contains "proven")
  | Error e -> Alcotest.fail e

(* ----------------------------------------- Algorithm 2 threshold example *)

(* Path 0-1-2-3 with weights 4, 4, 4 and components {0,3}... simpler:
   two terminals at weighted distance 12.  With eps = 1 the internal scale
   is 8, thresholds mu-hat = 4, 8, 12, ... in scaled units.  The merge
   needs growth 6 (unscaled) = 48 scaled; the checkpoint sequence must
   pass 4, 8, 12, 18, 27, 40, 60 >= 48 — i.e. 7 growth phases — before
   the pair can merge.  We assert the phase count matches the schedule
   computed from Moat_rounded.next_threshold directly. *)

let test_alg2_threshold_schedule () =
  let g = Graph.make ~n:4 [ 0, 1, 4; 1, 2, 4; 2, 3, 4 ] in
  let inst = Instance.make_ic g [| 0; -1; -1; 0 |] in
  let res = Moat_rounded.run ~eps_num:1 ~eps_den:1 inst in
  check Alcotest.int "weight = 12" 12 res.Moat_rounded.weight;
  check Alcotest.int "one merge" 1 res.Moat_rounded.merge_count;
  (* Replay the threshold schedule: growth stops at mu-hat until the
     cumulative growth reaches scale * wd / 2 = 8 * 12 / 2 = 48. *)
  let expected_phases =
    let rec go mu_hat phases =
      if mu_hat >= 48 then phases + 1
      else
        go (Moat_rounded.next_threshold ~eps_num:1 ~eps_den:1 mu_hat) (phases + 1)
    in
    go ((res.Moat_rounded.scale + 1) / 2) 0
  in
  check Alcotest.int "growth phases follow the integer schedule"
    expected_phases res.Moat_rounded.growth_phases;
  (* Dual in scaled units: two active moats all the way to the meeting
     radius (2 * 48), PLUS the Algorithm 2 idiosyncrasy that a merged moat
     stays active until the next checkpoint (line 33): the lone moat grows
     from 48 to the first threshold >= 48 at act = 1. *)
  let rec first_threshold_at_least target mu_hat =
    if mu_hat >= target then mu_hat
    else
      first_threshold_at_least target
        (Moat_rounded.next_threshold ~eps_num:1 ~eps_den:1 mu_hat)
  in
  let final = first_threshold_at_least 48 ((res.Moat_rounded.scale + 1) / 2) in
  check frac "dual = 96 + post-merge growth"
    (Frac.of_int ((2 * 48) + (final - 48)))
    res.Moat_rounded.dual

let test_alg2_matches_alg1_weight_small_eps () =
  (* For a single pair the rounding never changes the outcome. *)
  let g = Gen.path 7 in
  let inst = Instance.make_ic g [| 0; -1; -1; -1; -1; -1; 0 |] in
  let a1 = Moat.run inst in
  List.iter
    (fun (en, ed) ->
      let a2 = Moat_rounded.run ~eps_num:en ~eps_den:ed inst in
      check Alcotest.int
        (Printf.sprintf "eps=%d/%d same weight" en ed)
        a1.Moat.weight a2.Moat_rounded.weight)
    [ 1, 1; 1, 3; 1, 7 ]

let suites =
  [
    ( "util.intmath",
      [
        Alcotest.test_case "isqrt" `Quick test_intmath_isqrt;
        Alcotest.test_case "ceil_log2" `Quick test_intmath_ceil_log2;
        Alcotest.test_case "ceil_div" `Quick test_intmath_ceil_div;
        qtest prop_isqrt;
      ] );
    ("congest.exchange", [ Alcotest.test_case "counts" `Quick test_exchange_counts ]);
    ("core.certify_pp", [ Alcotest.test_case "pp" `Quick test_certify_pp ]);
    ( "worked_examples.alg2",
      [
        Alcotest.test_case "threshold schedule" `Quick test_alg2_threshold_schedule;
        Alcotest.test_case "rounding harmless on pairs" `Quick
          test_alg2_matches_alg1_weight_small_eps;
      ] );
  ]
