(* Cross-topology fuzzing: random instances drawn from the full generator
   zoo, pushed through the core algorithms with the strongest invariants
   asserted on every draw.  This is the suite that shakes out interactions
   the per-module tests cannot (odd topologies x odd label layouts x
   algorithm internals). *)

open Dsf_graph
open Dsf_core

let qtest = QCheck_alcotest.to_alcotest
let rng seed = Dsf_util.Rng.create seed

(* A topology zoo indexed by seed. *)
let random_graph r =
  match Dsf_util.Rng.int r 8 with
  | 0 -> Gen.random_connected r ~n:(10 + Dsf_util.Rng.int r 25) ~extra_edges:20 ~max_w:9
  | 1 -> Gen.reweight r ~max_w:9 (Gen.grid ~rows:(2 + Dsf_util.Rng.int r 4) ~cols:(2 + Dsf_util.Rng.int r 5))
  | 2 -> Gen.reweight r ~max_w:9 (Gen.cycle (5 + Dsf_util.Rng.int r 25))
  | 3 -> Gen.reweight r ~max_w:9 (Gen.path (4 + Dsf_util.Rng.int r 30))
  | 4 -> Gen.reweight r ~max_w:9 (Gen.star (4 + Dsf_util.Rng.int r 25))
  | 5 -> Gen.random_geometric r ~n:(10 + Dsf_util.Rng.int r 20) ~radius:0.35 ~max_w:20
  | 6 ->
      Gen.clustered r ~clusters:(2 + Dsf_util.Rng.int r 2)
        ~cluster_size:(4 + Dsf_util.Rng.int r 6)
        ~intra_extra:3 ~bridges:2 ~intra_w:4 ~bridge_w:25
  | _ -> Gen.reweight r ~max_w:9 (Gen.lollipop ~clique:(3 + Dsf_util.Rng.int r 4) ~tail:(3 + Dsf_util.Rng.int r 10))

let random_instance seed =
  let r = rng seed in
  let g = random_graph r in
  let n = Graph.n g in
  let k = 1 + Dsf_util.Rng.int r 3 in
  let t = min n (2 * k + Dsf_util.Rng.int r 5) in
  if t < 2 * k then None
  else Some (Instance.make_ic g (Gen.random_labels r ~n ~t ~k))

let with_instance seed f =
  match random_instance seed with None -> true | Some inst -> f inst

let prop_fuzz_det_schedule =
  QCheck.Test.make
    ~name:"fuzz: Det_dsf follows Moat's schedule on the topology zoo"
    ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let det = Det_dsf.run inst in
          let cen = Moat.run inst in
          Instance.is_feasible inst det.Det_dsf.solution
          && Frac.equal det.Det_dsf.dual cen.Moat.dual
          && det.Det_dsf.phase_count = cen.Moat.phase_count))

let prop_fuzz_sublinear_schedule =
  QCheck.Test.make
    ~name:"fuzz: Det_sublinear follows Moat_rounded's schedule on the zoo"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let sub = Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
          let cen = Moat_rounded.run ~eps_num:1 ~eps_den:2 inst in
          let norm ps =
            List.map (fun (a, b) -> min a b, max a b) ps |> List.sort compare
          in
          Instance.is_feasible inst sub.Det_sublinear.solution
          && norm sub.Det_sublinear.merge_pairs
             = norm cen.Moat_rounded.merge_pairs))

let prop_fuzz_rand_feasible =
  QCheck.Test.make
    ~name:"fuzz: Rand_dsf feasible and dual-bounded on the zoo" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let res = Rand_dsf.run ~repetitions:1 ~rng:(rng (seed + 13)) inst in
          if not (Instance.is_feasible inst res.Rand_dsf.solution) then false
          else begin
            (* The deterministic dual certifies an O(log n) ratio. *)
            let det = Det_dsf.run inst in
            let dual = Frac.to_float det.Det_dsf.dual in
            let n = Graph.n inst.Instance.graph in
            (* One repetition only gives the O(log n) ratio in expectation;
               allow generous constants so the test checks the order of
               magnitude, not the tail. *)
            dual <= 0.
            || float_of_int res.Rand_dsf.weight
               <= 8.0 *. (1.0 +. log (float_of_int (max 4 n))) *. dual
          end))

let prop_fuzz_pruning_fixpoint =
  QCheck.Test.make
    ~name:"fuzz: F.3 pruning is the minimal-subforest fixpoint on the zoo"
    ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          let f = Mst.kruskal inst.Instance.graph in
          if not (Instance.is_feasible inst f) then true
          else begin
            let g = inst.Instance.graph in
            let tree =
              Dsf_congest.Bfs.build g ~root:(Dsf_congest.Bfs.max_id_root g)
            in
            let res = Pruning.run inst ~tree ~f ~sigma:4 in
            res.Pruning.pruned = Instance.prune inst f
          end))

let prop_fuzz_solver_reports =
  QCheck.Test.make
    ~name:"fuzz: Solver reports are self-consistent on the zoo" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      with_instance seed (fun inst ->
          List.for_all
            (fun (r : Solver.report) ->
              r.Solver.feasible
              && r.Solver.weight = Instance.solution_weight inst r.Solver.solution
              && (match Certify.check ?dual:r.Solver.dual_lower_bound inst
                          ~solution:r.Solver.solution with
                 | Ok _ -> true
                 | Error _ -> false))
            (Solver.compare_all
               ~algorithms:
                 [
                   Solver.Det;
                   Solver.Det_sublinear { eps_num = 1; eps_den = 1 };
                   Solver.Rand
                     { repetitions = 1; rng = Dsf_util.Rng.create seed };
                 ]
               (Solver.Ic inst))))

let prop_fuzz_cr_pipeline =
  QCheck.Test.make
    ~name:"fuzz: CR transform + solve serves every request on the zoo"
    ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r = rng seed in
      let g = random_graph r in
      let n = Graph.n g in
      let requests = Array.make n [] in
      for _ = 1 to 1 + Dsf_util.Rng.int r 6 do
        let a = Dsf_util.Rng.int r n and b = Dsf_util.Rng.int r n in
        if a <> b then requests.(a) <- b :: requests.(a)
      done;
      let cr = Instance.make_cr g requests in
      let rep = Solver.solve_cr Solver.Det cr in
      Instance.cr_is_feasible cr rep.Solver.solution)

(* Mutation fuzzing of the input parser and the solvers behind it: the two
   checked-in instance files, cut short, with bytes flipped, and with
   lines duplicated, deleted and swapped.  A mutated file either parses
   or raises [Io.Parse_error] (any other exception escapes and fails the
   property), and every connected instance that parses must solve under
   all five algorithms without an exception. *)

let read_fixture path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixtures =
  lazy
    (List.map read_fixture
       [ "fixtures/det_small.dsf"; "fixtures/det_small_cr.dsf" ])

(* Replacement bytes lean towards what keeps a line parseable. *)
let flip_bytes = "0123456789 -\n#nedglabrqust"

let mutate r text =
  let len = String.length text in
  let lines () = Array.of_list (String.split_on_char '\n' text) in
  let join a = String.concat "\n" (Array.to_list a) in
  match Dsf_util.Rng.int r 5 with
  | 0 -> String.sub text 0 (Dsf_util.Rng.int r (len + 1))
  | 1 when len > 0 ->
      let b = Bytes.of_string text in
      Bytes.set b (Dsf_util.Rng.int r len)
        flip_bytes.[Dsf_util.Rng.int r (String.length flip_bytes)];
      Bytes.to_string b
  | 2 ->
      let a = lines () in
      let i = Dsf_util.Rng.int r (Array.length a) in
      join (Array.concat [ Array.sub a 0 (i + 1); Array.sub a i (Array.length a - i) ])
  | 3 ->
      let a = lines () in
      let i = Dsf_util.Rng.int r (Array.length a) in
      join (Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1)))
  | _ ->
      let a = lines () in
      let i = Dsf_util.Rng.int r (Array.length a)
      and j = Dsf_util.Rng.int r (Array.length a) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      join a

let prop_fuzz_mutated_inputs =
  QCheck.Test.make
    ~name:"fuzz: mutated instance files parse or fail cleanly, and solve"
    ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r = rng seed in
      let base = List.nth (Lazy.force fixtures) (Dsf_util.Rng.int r 2) in
      let text = ref base in
      for _ = 0 to Dsf_util.Rng.int r 3 do
        text := mutate r !text
      done;
      match Io.parse_string !text with
      | exception Io.Parse_error _ -> true
      | Io.Plain _ -> true
      | (Io.Ic _ | Io.Cr _) as parsed ->
          let input, g =
            match parsed with
            | Io.Ic inst -> Solver.Ic inst, inst.Instance.graph
            | Io.Cr cr -> Solver.Cr cr, cr.Instance.cr_graph
            | Io.Plain _ -> assert false
          in
          (not (Graph.is_connected g))
          || List.for_all
               (fun algorithm ->
                 ignore (Solver.solve algorithm input : Solver.report);
                 true)
               [
                 Solver.Det;
                 Solver.Det_sublinear { eps_num = 1; eps_den = 2 };
                 Solver.Rand { repetitions = 1; rng = rng (seed + 1) };
                 Solver.Khan_baseline { repetitions = 1; rng = rng (seed + 2) };
                 Solver.Centralized_moat;
               ])

let suites =
  [
    ( "fuzz",
      [
        qtest prop_fuzz_det_schedule;
        qtest prop_fuzz_sublinear_schedule;
        qtest prop_fuzz_rand_feasible;
        qtest prop_fuzz_pruning_fixpoint;
        qtest prop_fuzz_solver_reports;
        qtest prop_fuzz_cr_pipeline;
        qtest prop_fuzz_mutated_inputs;
      ] );
  ]
