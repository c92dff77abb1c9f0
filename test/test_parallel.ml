(* The multicore trial engine: Dsf_util.Pool unit tests, and the
   jobs-invariance contract — running a trial fan-out on N domains must
   be bit-identical to running it on one (same solutions, weights and
   ledgers).  See the domain-safety contract in lib/congest/sim.mli. *)

open Dsf_graph
open Dsf_core
module Pool = Dsf_util.Pool
module Ledger = Dsf_congest.Ledger

let check = Alcotest.check

let random_instance ?(n = 24) ?(extra = 18) ?(max_w = 8) ?(t = 8) ?(k = 3) seed =
  let r = Dsf_util.Rng.create seed in
  let g = Gen.random_connected r ~n ~extra_edges:extra ~max_w in
  let labels = Gen.random_labels r ~n ~t ~k in
  Instance.make_ic g labels

(* ------------------------------------------------------------------- Pool *)

let test_pool_ordering () =
  let input = Array.init 257 (fun i -> i) in
  let expected = Array.map (fun i -> (i * i) + 1) input in
  List.iter
    (fun jobs ->
      let got = Pool.map_chunked ~jobs (fun i -> (i * i) + 1) input in
      check
        Alcotest.(array int)
        (Printf.sprintf "ordered at jobs=%d" jobs)
        expected got)
    [ 1; 2; 3; 4; Pool.hard_cap; Pool.hard_cap + 5 ]

let test_pool_empty_and_singleton () =
  check Alcotest.(array int) "empty" [||]
    (Pool.map_chunked ~jobs:4 (fun i -> i) [||]);
  check Alcotest.(array int) "singleton" [| 7 |]
    (Pool.map_chunked ~jobs:4 (fun i -> i + 1) [| 6 |])

exception Boom of int

let test_pool_exception_propagation () =
  (* The smallest failing index wins, regardless of which domain hits its
     failure first. *)
  match
    Pool.map_chunked ~jobs:4
      (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
      (Array.init 64 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check Alcotest.int "smallest failing index" 2 i

let test_pool_nested_use_rejected () =
  (* A parallel region inside a parallel region must raise Nested_use (the
     pool is a process-global resource), and the outer batch must still
     fail cleanly rather than deadlock. *)
  match
    Pool.map_chunked ~jobs:2
      (fun i ->
        if i = 0 then
          Array.length (Pool.map_chunked ~jobs:2 (fun j -> j) [| 0; 1; 2 |])
        else i)
      [| 0; 1; 2; 3 |]
  with
  | _ -> Alcotest.fail "expected Nested_use"
  | exception Pool.Nested_use -> ()

let test_pool_nested_sequential_ok () =
  (* jobs=1 short-circuits to Array.map, so sequential use inside a
     parallel task is allowed — Rand_dsf's default path relies on it. *)
  let got =
    Pool.map_chunked ~jobs:2
      (fun i ->
        Array.fold_left ( + ) 0
          (Pool.map_chunked ~jobs:1 (fun j -> i + j) [| 1; 2; 3 |]))
      [| 0; 10 |]
  in
  check Alcotest.(array int) "nested jobs=1" [| 6; 36 |] got

let test_pool_reusable_after_exception () =
  (try ignore (Pool.map_chunked ~jobs:3 (fun _ -> raise Exit) [| 1; 2; 3 |])
   with Exit -> ());
  let got = Pool.map_chunked ~jobs:3 (fun i -> 2 * i) [| 1; 2; 3 |] in
  check Alcotest.(array int) "pool survives a failed batch" [| 2; 4; 6 |] got

let test_pool_survives_failing_batches () =
  (* Repeated failing batches at full parallelism: a chunk that raises on
     a helper domain must neither wedge the caller nor leave the region
     unjoined.  Each failing batch is followed by a clean one that must
     still come back complete and correctly ordered. *)
  let input = Array.init 32 Fun.id in
  for round = 1 to 5 do
    (match
       Pool.map_chunked ~jobs:Pool.hard_cap
         (fun i -> if i mod 2 = 0 then raise (Boom i) else i)
         input
     with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> check Alcotest.int "smallest failing index" 0 i);
    let got = Pool.map_chunked ~jobs:Pool.hard_cap (fun i -> i + round) input in
    check
      Alcotest.(array int)
      (Printf.sprintf "clean batch after failures, round %d" round)
      (Array.map (fun i -> i + round) input)
      got
  done

let test_pool_default_jobs_bounds () =
  let d = Pool.default_jobs () in
  Alcotest.(check bool) "within [1, hard_cap]" true (1 <= d && d <= Pool.hard_cap)

(* -------------------------------------------------------- jobs invariance *)

let ledger_repr l =
  ("S:" ^ string_of_int (Ledger.simulated l))
  :: List.map
       (fun (label, rounds) -> "C:" ^ label ^ ":" ^ string_of_int rounds)
       (Ledger.charges l)

let rand_invariance seed ~repetitions ~force_truncate =
  let inst = random_instance seed in
  let runs =
    List.map
      (fun jobs ->
        Rand_dsf.run ~repetitions ~force_truncate ~jobs
          ~rng:(Dsf_util.Rng.create (seed * 7))
          inst)
      [ 1; 4 ]
  in
  match runs with
  | [ a; b ] ->
      check Alcotest.int "weight" a.Rand_dsf.weight b.Rand_dsf.weight;
      check
        Alcotest.(array bool)
        "solution" a.Rand_dsf.solution b.Rand_dsf.solution;
      check Alcotest.int "phases" a.Rand_dsf.phases b.Rand_dsf.phases;
      check
        Alcotest.(list string)
        "ledger" (ledger_repr a.Rand_dsf.ledger)
        (ledger_repr b.Rand_dsf.ledger)
  | _ -> assert false

let test_rand_jobs_invariant () =
  List.iter (fun seed -> rand_invariance seed ~repetitions:5 ~force_truncate:false)
    [ 3; 11; 42 ]

let test_rand_jobs_invariant_truncated () =
  rand_invariance 5 ~repetitions:4 ~force_truncate:true

let test_solver_jobs_invariant () =
  let inst = random_instance 23 in
  let algo = Solver.Rand { repetitions = 4; rng = Dsf_util.Rng.create 9 } in
  let a = Solver.solve_ic ~jobs:1 algo inst in
  let b = Solver.solve_ic ~jobs:4 algo inst in
  check Alcotest.int "weight" a.Solver.weight b.Solver.weight;
  check Alcotest.(array bool) "solution" a.Solver.solution b.Solver.solution;
  let rounds (r : Solver.report) =
    Option.map
      (fun l -> Dsf_congest.Ledger.simulated l, Dsf_congest.Ledger.charged l)
      r.Solver.ledger
  in
  check
    Alcotest.(option (pair int int))
    "rounds simulated, charged" (rounds a) (rounds b)

let test_det_via_pool_matches_sequential () =
  (* Deterministic solvers mapped over instances through the pool must
     match the plain sequential map — the harness-level fan-out used by the
     bench sweeps (E1/E14/A2). *)
  let seeds = Array.init 6 (fun i -> 100 + i) in
  let solve seed =
    let inst = random_instance seed in
    let r = Det_dsf.run inst in
    (r.Det_dsf.weight, Ledger.total r.Det_dsf.ledger)
  in
  let seq = Array.map solve seeds in
  let par = Pool.map_chunked ~jobs:4 solve seeds in
  check
    Alcotest.(array (pair int int))
    "det_dsf pooled = sequential" seq par

let test_det_sublinear_via_pool_matches_sequential () =
  let seeds = Array.init 4 (fun i -> 200 + i) in
  let solve seed =
    let inst = random_instance seed in
    let r = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
    (r.Det_sublinear.weight, Ledger.total r.Det_sublinear.ledger)
  in
  let seq = Array.map solve seeds in
  let par = Pool.map_chunked ~jobs:4 solve seeds in
  check
    Alcotest.(array (pair int int))
    "det_sublinear pooled = sequential" seq par

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "deterministic ordering" `Quick test_pool_ordering;
        Alcotest.test_case "empty and singleton" `Quick
          test_pool_empty_and_singleton;
        Alcotest.test_case "exception propagation" `Quick
          test_pool_exception_propagation;
        Alcotest.test_case "nested use rejected" `Quick
          test_pool_nested_use_rejected;
        Alcotest.test_case "nested jobs=1 allowed" `Quick
          test_pool_nested_sequential_ok;
        Alcotest.test_case "reusable after exception" `Quick
          test_pool_reusable_after_exception;
        Alcotest.test_case "survives failing batches" `Quick
          test_pool_survives_failing_batches;
        Alcotest.test_case "default_jobs bounds" `Quick
          test_pool_default_jobs_bounds;
      ] );
    ( "jobs invariance",
      [
        Alcotest.test_case "rand_dsf jobs=1 vs jobs=4" `Quick
          test_rand_jobs_invariant;
        Alcotest.test_case "rand_dsf truncated regime" `Quick
          test_rand_jobs_invariant_truncated;
        Alcotest.test_case "solver ?jobs" `Quick test_solver_jobs_invariant;
        Alcotest.test_case "det_dsf pooled sweep" `Quick
          test_det_via_pool_matches_sequential;
        Alcotest.test_case "det_sublinear pooled sweep" `Quick
          test_det_sublinear_via_pool_matches_sequential;
      ] );
  ]
