(* Bechamel wall-clock microbenchmarks: one Test.make per core algorithm
   and substrate, all on a shared medium instance.  These measure the
   *simulator's* execution time (the paper's own metric is rounds, covered
   by the experiment tables in Tables).

   Two layers:
   - [run] (the `-- micro` mode): the full suite, plus head-to-head
     flat vs reference-engine runs of the sparse-activity protocols.
   - [smoke] (the `-- smoke` mode): only the engine head-to-heads at a tiny
     measurement quota — fast enough for every-PR CI (bin/ci.sh).

   Both modes write BENCH_sim.json (schema dsf-bench-sim/11: ns/run, minor GC
   words/run, rounds/s, the flat-vs-reference speedups, plus
   provenance — git_rev, utc_date, jobs, cores — a parallel_scaling
   section timing the pooled fan-outs at jobs = 1 / 2 / max, capped at
   the detected core count, a flat_engine section with every
   native flat port's headline numbers (rounds/s and minor words/round on
   paths at n = 256 / 4096 / 16384 — what bin/ci.sh's per-workload GC
   gate reads — plus a dense-round broadcast on a random graph at
   n = 512), a flat_e2e
   section with end-to-end flat det_dsf solves on path / random / gadget
   instances at the same sizes, a fault_overhead section
   tabulating the round/message/retransmission cost of a hardened run at
   increasing drop probability, a fault_recovery section tabulating the
   restores / recovery rounds / retransmissions / checkpoint bits / wall
   overhead of checkpointed crash recovery at increasing crash-window counts on the E1
   and A6 workloads (fault-free baselines inline), and a phase_profile section with the
   telemetry span tree of the E1 and A6 workloads — per-phase rounds,
   messages and bits under an injected constant clock, and a
   recorder_overhead section tabulating the flight recorder's event count,
   log size, paired wall-clock overhead and ns per event on flat det_dsf
   solves at n = 1024) so later PRs can
   diff simulator performance against this one.  Each parallel_scaling workload carries a
   deterministic "check" value that must not depend on jobs, and every
   fault_overhead field is PRF-deterministic; bin/ci.sh diffs the
   non-timing fields of a --jobs 1 and a --jobs 2 run to enforce that. *)

open Bechamel
open Toolkit

module Gen = Dsf_graph.Gen
module Inst = Dsf_graph.Instance
module Sim = Dsf_congest.Sim

let shared_instance =
  lazy
    (let r = Dsf_util.Rng.create 42 in
     let g = Gen.random_connected r ~n:40 ~extra_edges:30 ~max_w:10 in
     let labels = Gen.random_labels r ~n:40 ~t:10 ~k:3 in
     Inst.make_ic g labels)

let small_instance =
  lazy
    (let r = Dsf_util.Rng.create 43 in
     let g = Gen.random_connected r ~n:16 ~extra_edges:12 ~max_w:8 in
     let labels = Gen.random_labels r ~n:16 ~t:6 ~k:2 in
     Inst.make_ic g labels)

(* --------------------------------------------- simulator engine pairs *)

let shared_graph = lazy (Lazy.force shared_instance).Inst.graph
let path256 = lazy (Gen.path 256)

let shared_tree =
  lazy (Dsf_congest.Bfs.build (Lazy.force shared_graph) ~root:0)

(* Engine-pair benchmarks drive whole entry points (Bellman_ford.sssp,
   Det_dsf.run, ...) through both engines; like the differential suite,
   that is only possible via the global engine shim — no engine parameter
   is threaded through those APIs on purpose.  Under the shim each
   primitive runs its one protocol on the seed loop, so a pair times the
   same protocol code on the two engines.  Single-domain: the bench harness never runs this inside
   a pool task. *)
let in_reference f =
  Sim.use_reference_engine := true;
  Fun.protect ~finally:(fun () -> Sim.use_reference_engine := false) f
[@@lint.allow "sim-globals"]

(* Each case is a sparse-activity CONGEST workload run on the env it is
   given; it is benchmarked once on the production flat engine (native
   ports) and once on the kept seed loop, both on the default env, so the
   timings carry no instrumentation; the speedup column derives from these
   pairs. *)
let sim_cases : (string * (Sim.env -> unit)) list =
  [
    ( "bf random n=40",
      fun env ->
        ignore
          (Dsf_congest.Bellman_ford.sssp ~env (Lazy.force shared_graph) ~src:0)
    );
    ( "bf path n=256",
      fun env ->
        ignore (Dsf_congest.Bellman_ford.sssp ~env (Lazy.force path256) ~src:0)
    );
    ( "upcast n=40",
      fun env ->
        ignore
          (Dsf_congest.Tree_ops.upcast ~env (Lazy.force shared_graph)
             ~tree:(Lazy.force shared_tree)
             ~items:(fun v -> [ v; v + 100; v + 200 ])
             ~bits:(fun x -> Dsf_util.Bitsize.int_bits (max 1 x))) );
    ( "filtered_upcast n=40",
      fun env ->
        let g = Lazy.force shared_graph in
        let items v =
          Array.to_list (Dsf_graph.Graph.edges g)
          |> List.filter_map (fun (e : Dsf_graph.Graph.edge) ->
                 if min e.u e.v = v then
                   Some { Dsf_congest.Pipeline.key = (e.w, e.id); a = e.u; b = e.v }
                 else None)
        in
        ignore
          (Dsf_congest.Pipeline.filtered_upcast ~env g
             ~tree:(Lazy.force shared_tree) ~vn:40 ~pre:[] ~items ~cmp:compare
             ~bits:(fun _ -> 30)) );
  ]

let sim_tests =
  List.concat_map
    (fun (nm, thunk) ->
      [
        Test.make
          ~name:(Printf.sprintf "sim/%s [reference]" nm)
          (Staged.stage (fun () ->
               in_reference (fun () -> thunk Sim.default_env)));
        Test.make
          ~name:(Printf.sprintf "sim/%s [flat]" nm)
          (Staged.stage (fun () -> thunk Sim.default_env));
      ])
    sim_cases

(* Rounds per run, for the rounds/s column: one untimed, measured
   execution per case (both engines execute the same schedule —
   test_sim_equiv proves it). *)
let sim_rounds =
  lazy
    (List.map
       (fun (nm, thunk) -> nm, (snd (Sim.measure thunk)).Sim.rounds)
       sim_cases)

let rounds_of name =
  List.find_map
    (fun (nm, rounds) ->
      if name = Printf.sprintf "sim/%s [reference]" nm
         || name = Printf.sprintf "sim/%s [flat]" nm
      then Some rounds
      else None)
    (Lazy.force sim_rounds)

(* ------------------------------------------------------- algorithm suite *)

(* Edge triples of the all-sources-sweep workloads.  Each run rebuilds the
   graph from them, so the (D, WD, s) memo never hits and the row times
   the sweep itself: MS-BFS and the Dial kernel, on shallow random graphs
   and on a deep path. *)
let sweep_triples g =
  Array.map (fun (e : Dsf_graph.Graph.edge) -> e.u, e.v, e.w)
    (Dsf_graph.Graph.edges g)

let sweep_random =
  lazy
    (sweep_triples
       (Gen.random_connected (Dsf_util.Rng.create 44) ~n:512 ~extra_edges:512
          ~max_w:16))

let sweep_random_2048 =
  lazy
    (sweep_triples
       (Gen.random_connected (Dsf_util.Rng.create 46) ~n:2048 ~extra_edges:2048
          ~max_w:16))

let sweep_path =
  lazy
    (sweep_triples
       (Gen.reweight (Dsf_util.Rng.create 45) ~max_w:16 (Gen.path 256)))

let sweep_test ?jobs name ~n triples =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore
           (Dsf_graph.Paths.parameters ?jobs
              (Dsf_graph.Graph.make_arr ~n (Lazy.force triples)))))

let tests =
  [
    sweep_test "paths/parameters random n=512" ~n:512 sweep_random;
    sweep_test "paths/parameters random n=2048" ~n:2048 sweep_random_2048;
    sweep_test ~jobs:2 "paths/parameters random n=2048 jobs=2" ~n:2048
      sweep_random_2048;
    sweep_test "paths/parameters path n=256" ~n:256 sweep_path;
    Test.make ~name:"moat (Alg 1, n=40)"
      (Staged.stage (fun () ->
           ignore (Dsf_core.Moat.run (Lazy.force shared_instance))));
    Test.make ~name:"moat_rounded (Alg 2, eps=1/2, n=40)"
      (Staged.stage (fun () ->
           ignore
             (Dsf_core.Moat_rounded.run ~eps_num:1 ~eps_den:2
                (Lazy.force shared_instance))));
    Test.make ~name:"det_dsf (Thm 4.17, n=40)"
      (Staged.stage (fun () ->
           ignore (Dsf_core.Det_dsf.run (Lazy.force shared_instance))));
    Test.make ~name:"det_sublinear (Cor 4.21, n=40)"
      (Staged.stage (fun () ->
           ignore
             (Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den:2
                (Lazy.force shared_instance))));
    Test.make ~name:"rand_dsf (Thm 5.2, n=40, 1 rep)"
      (Staged.stage (fun () ->
           ignore
             (Dsf_core.Rand_dsf.run ~repetitions:1
                ~rng:(Dsf_util.Rng.create 7)
                (Lazy.force shared_instance))));
    Test.make ~name:"khan baseline (n=40, 1 rep)"
      (Staged.stage (fun () ->
           ignore
             (Dsf_core.Khan_etal.run ~repetitions:1
                ~rng:(Dsf_util.Rng.create 8)
                (Lazy.force shared_instance))));
    Test.make ~name:"LE lists (n=40)"
      (Staged.stage (fun () ->
           ignore
             (Dsf_embed.Le_list.build (Dsf_util.Rng.create 9)
                (Lazy.force shared_instance).Inst.graph)));
    Test.make ~name:"exact DP (n=16, t=6)"
      (Staged.stage (fun () ->
           ignore (Dsf_graph.Exact.steiner_forest_weight (Lazy.force small_instance))));
    Test.make ~name:"distributed MST (n=40)"
      (Staged.stage (fun () ->
           ignore
             (Dsf_baseline.Mst_distributed.run
                (Lazy.force shared_instance).Inst.graph)));
  ]

(* Size-indexed series: how the simulator's wall-clock cost scales with the
   network size (args = n). *)
let indexed_instance =
  let cache = Hashtbl.create 4 in
  fun n ->
    match Hashtbl.find_opt cache n with
    | Some inst -> inst
    | None ->
        let r = Dsf_util.Rng.create (1000 + n) in
        let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:10 in
        let labels = Gen.random_labels r ~n ~t:8 ~k:2 in
        let inst = Inst.make_ic g labels in
        Hashtbl.replace cache n inst;
        inst

let indexed_tests =
  [
    Test.make_indexed ~name:"det_dsf @ n" ~args:[ 20; 40; 80 ] (fun n ->
        Staged.stage (fun () -> ignore (Dsf_core.Det_dsf.run (indexed_instance n))));
    Test.make_indexed ~name:"bellman_ford @ n" ~args:[ 20; 40; 80 ] (fun n ->
        Staged.stage (fun () ->
            ignore
              (Dsf_congest.Bellman_ford.sssp (indexed_instance n).Inst.graph
                 ~src:0)));
    Test.make_indexed ~name:"pipeline MST @ n" ~args:[ 20; 40; 80 ] (fun n ->
        Staged.stage (fun () ->
            ignore (Dsf_baseline.Mst_distributed.run (indexed_instance n).Inst.graph)));
  ]

(* ------------------------------------------------------------ measurement *)

type row = {
  name : string;
  ns_per_run : float;
  r2 : float;
  minor_words : float;
  rounds_per_run : int option;
}

let estimate raw witness =
  let ols =
    Analyze.OLS.ols ~bootstrap:0 ~r_square:true
      ~responder:(Measure.label witness)
      ~predictors:[| Measure.run |]
      raw.Benchmark.lr
  in
  let v =
    match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
  in
  v, Option.value ~default:nan (Analyze.OLS.r_square ols)

(* Minor words per run, exact: one warm-up run (lazies forced, caches
   filled), then the [Gc.minor_words] delta of [minor_word_runs] runs on
   this domain.  Bechamel's OLS estimate of allocation moved by 35%
   between runs of unchanged code, too much for the 25% guard of
   [bench compare]; this figure repeats exactly for single-domain
   workloads. *)
let minor_word_runs = 5

let exact_minor_words elt =
  match Test.Elt.fn elt with
  | Test.V { fn; kind = Test.Uniq; allocate; free } ->
      let r = allocate () in
      let run () = ignore (Sys.opaque_identity (fn `Init (Test.Uniq.prj r))) in
      run ();
      let w0 = Gc.minor_words () in
      for _ = 1 to minor_word_runs do
        run ()
      done;
      let words = Gc.minor_words () -. w0 in
      free r;
      words /. float_of_int minor_word_runs
  | Test.V { kind = Test.Multiple; _ } -> nan

let measure ~quota tests =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) () in
  List.concat_map
    (fun test ->
      List.map
        (fun elt ->
          let raw = Benchmark.run cfg [ Instance.monotonic_clock ] elt in
          let ns, r2 = estimate raw Instance.monotonic_clock in
          let name = Test.Elt.name elt in
          { name; ns_per_run = ns; r2; minor_words = exact_minor_words elt;
            rounds_per_run = rounds_of name })
        (Test.elements test))
    tests

let print_rows rows =
  Format.printf "%-42s %14s %10s %12s %12s@." "benchmark" "ns/run" "r^2"
    "words/run" "rounds/s";
  List.iter
    (fun r ->
      let rps =
        match r.rounds_per_run with
        | Some rounds when r.ns_per_run > 0. ->
            Printf.sprintf "%.3e" (float_of_int rounds *. 1e9 /. r.ns_per_run)
        | _ -> "-"
      in
      Format.printf "%-42s %14.0f %10.3f %12.0f %12s@." r.name r.ns_per_run
        r.r2 r.minor_words rps)
    rows

(* Reference/flat pairs -> measured speedups. *)
type speedup = { workload : string; reference_ns : float; flat_ns : float }

let speedups rows =
  List.filter_map
    (fun (nm, _) ->
      let find suffix =
        List.find_opt
          (fun r -> r.name = Printf.sprintf "sim/%s [%s]" nm suffix)
          rows
      in
      match find "reference", find "flat" with
      | Some r, Some f ->
          Some { workload = nm; reference_ns = r.ns_per_run;
                 flat_ns = f.ns_per_run }
      | _ -> None)
    sim_cases

let print_speedups sp =
  Format.printf "@.%-42s %14s %12s %9s@." "engine speedups" "reference ns"
    "flat ns" "flat x";
  List.iter
    (fun s ->
      Format.printf "%-42s %14.0f %12.0f %9.2f@." s.workload s.reference_ns
        s.flat_ns
        (s.reference_ns /. s.flat_ns))
    sp

(* ------------------------------------------------------- parallel scaling *)

(* Wall-clock the pooled fan-out sites at jobs = 1 / 2 / max, skipping
   points that ask for more domains than the machine has cores (they
   cannot speed up further; CI containers are often 1-2 cores).  Every
   workload returns a deterministic check value (a weight or round sum);
   results must be identical at every jobs, so a mismatch aborts the
   benchmark — this is the runtime teeth behind the jobs-invariance suite
   in test/test_parallel.ml. *)

let detected_cores () = Domain.recommended_domain_count ()

let scaling_points =
  List.sort_uniq compare [ 1; 2; max 4 (Dsf_util.Pool.default_jobs ()) ]
  |> List.filter (fun j -> j <= detected_cores ())

let scaling_workloads : (string * (jobs:int -> int)) list =
  [
    (* Rand_dsf's repetition fan-out (the ?jobs plumbed through Solver). *)
    ( "rand_dsf reps",
      fun ~jobs ->
        let r =
          Dsf_core.Rand_dsf.run ~repetitions:8 ~jobs
            ~rng:(Dsf_util.Rng.create 7)
            (Lazy.force shared_instance)
        in
        r.Dsf_core.Rand_dsf.weight );
    (* A Tables-style independent seed sweep, pooled like E1/E14. *)
    ( "tables sweep",
      fun ~jobs ->
        let weights =
          Dsf_util.Pool.map_chunked ~jobs
            (fun seed ->
              let r = Dsf_util.Rng.create seed in
              let g = Gen.random_connected r ~n:40 ~extra_edges:30 ~max_w:10 in
              let labels = Gen.random_labels r ~n:40 ~t:10 ~k:3 in
              (Dsf_core.Det_dsf.run (Inst.make_ic g labels))
                .Dsf_core.Det_dsf.weight)
            (Array.init 8 (fun i -> 100 + i))
        in
        Array.fold_left ( + ) 0 weights );
    (* The CI smoke workloads themselves, one pool task per case, each
       counting its rounds in its own ledger. *)
    ( "smoke",
      fun ~jobs ->
        let rounds =
          Dsf_util.Pool.map_chunked ~jobs
            (fun (_, thunk) ->
              let ledger = Dsf_congest.Ledger.create () in
              thunk { Sim.default_env with ledger = Some ledger };
              Dsf_congest.Ledger.simulated ledger)
            (Array.of_list sim_cases)
        in
        Array.fold_left ( + ) 0 rounds );
  ]

type scaling = { workload : string; check : int; runs : (int * float) list }

let measure_scaling () =
  (* Force every shared lazy before any multi-domain run: Lazy.force is not
     safe to race from two domains. *)
  ignore (Lazy.force shared_instance);
  ignore (Lazy.force shared_graph);
  ignore (Lazy.force shared_tree);
  ignore (Lazy.force path256);
  List.map
    (fun (workload, work) ->
      let check = ref None in
      let runs =
        List.map
          (fun jobs ->
            let best = ref infinity in
            for _ = 1 to 3 do
              let t0 = Unix.gettimeofday () in
              let c = work ~jobs in
              let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
              (match !check with
              | None -> check := Some c
              | Some c0 ->
                  if c <> c0 then
                    failwith
                      (Printf.sprintf
                         "parallel_scaling: %S is jobs-dependent (%d <> %d at \
                          jobs=%d)"
                         workload c c0 jobs));
              if ns < !best then best := ns
            done;
            jobs, !best)
          scaling_points
      in
      { workload; check = Option.get !check; runs })
    scaling_workloads

let print_scaling scaling =
  Format.printf "@.%-42s %6s %14s %10s   (cores: %d)@." "parallel scaling"
    "jobs" "wall ns" "x vs j=1" (detected_cores ());
  List.iter
    (fun s ->
      let base = match s.runs with (_, ns) :: _ -> ns | [] -> nan in
      List.iter
        (fun (jobs, ns) ->
          Format.printf "%-42s %6d %14.0f %10.2f@." s.workload jobs ns
            (base /. ns))
        s.runs)
    scaling

(* ------------------------------------------------------------- flat engine *)

(* Whole-run wall clock + GC for every native flat-engine port, each on
   a path — the highest-diameter, sparsest-activity workload.  Sizes are
   fixed so later PRs diff like against like; the minor-words column at
   n=256 of each workload is what bin/ci.sh's per-workload GC gate reads.
   Every engine run steps on one domain, so the rows' JSON "jobs" is
   always 1; the column stays so bench compare's row keys and the GC
   gate's filter read old and new snapshots alike. *)

type flat_row = {
  fl_workload : string;
  fl_n : int;
  fl_rounds : int;
  fl_wall_ns : float;
  fl_rps : float;
  fl_words_per_round : float;
}

let flat_sizes = [ 256; 4096; 16384 ]
let flat_smoke_sizes = [ 256; 4096 ]

(* Shared per-size fixtures, built once outside any timed region (the CSR
   view is a one-time per-graph cost every run shares). *)
let flat_graph =
  let cache = Hashtbl.create 4 in
  fun n ->
    match Hashtbl.find_opt cache n with
    | Some g -> g
    | None ->
        let g = Gen.path n in
        ignore (Dsf_graph.Graph.csr g);
        Hashtbl.replace cache n g;
        g

let flat_tree =
  let cache = Hashtbl.create 4 in
  fun n ->
    match Hashtbl.find_opt cache n with
    | Some t -> t
    | None ->
        let t = Dsf_congest.Bfs.build (flat_graph n) ~root:0 in
        Hashtbl.replace cache n t;
        t

(* The sizes a workload runs at: the mode's sizes up to a cap, or one
   fixed size in every mode. *)
type flat_size = Upto of int | Fixed of int

(* One entry per ported primitive: name, sizes, and a per-n
   constructor returning the runner.  The upcast workloads
   give every 16th node one item, so the pipelined message volume stays
   ~n^2/16 and the rows measure scheduling, not payload shuffling; the
   broadcast pipelines 16 root items down the path, 16n messages.
   [broadcast random] is the dense-round case: 128 items down the BFS
   tree of a random graph with m ~ 2n, so nearly every node receives
   mail in every round and the engine rebuilds a long active list each
   round.  The
   filtered upcast keeps a union-find over all [vn = n] virtual nodes at
   every node — n^2 words, about 4 GB at n = 16384 — so its size is capped
   to fit an 8 GB host; the skip is printed, never silent.  A runner
   takes the env whose ledger counts its rounds. *)
let flat_workloads : (string * flat_size * (int -> Sim.env -> unit)) list =
  let item_bits x = Dsf_util.Bitsize.int_bits (max 1 x) in
  [
    ( "bfs path",
      Upto max_int,
      fun n ->
        let g = flat_graph n in
        fun env ->
          ignore
            (Sim.run_flat ~env g
               (Dsf_congest.Bfs.flat_protocol ~n:(Dsf_graph.Graph.n g) ~root:0))
    );
    ( "bellman_ford path",
      Upto max_int,
      fun n ->
        let g = flat_graph n in
        let sources = [ 0, 0; n - 1, 0 ] in
        fun env -> ignore (Dsf_congest.Bellman_ford.run ~env g ~sources) );
    ( "region_bf path",
      Upto max_int,
      fun n ->
        let g = flat_graph n in
        let sources =
          [ 0, Dsf_core.Frac.zero, 0; n - 1, Dsf_core.Frac.zero, n - 1 ]
        in
        let frozen = Array.make n false in
        fun env -> ignore (Dsf_core.Region_bf.run ~env g ~sources ~frozen) );
    ( "upcast path",
      Upto max_int,
      fun n ->
        let g = flat_graph n and tree = flat_tree n in
        let items v = if v > 0 && v mod 16 = 0 then [ v ] else [] in
        fun env ->
          ignore
            (Dsf_congest.Tree_ops.upcast ~env g ~tree ~items ~bits:item_bits)
    );
    ( "broadcast path",
      Upto max_int,
      fun n ->
        let g = flat_graph n and tree = flat_tree n in
        let items = List.init 16 (fun i -> i + 1) in
        fun env ->
          Dsf_congest.Tree_ops.broadcast ~env g ~tree ~items ~bits:item_bits );
    ( "broadcast random",
      Fixed 512,
      fun n ->
        let g =
          Gen.random_connected (Dsf_util.Rng.create n) ~n ~extra_edges:n
            ~max_w:16
        in
        ignore (Dsf_graph.Graph.csr g);
        let tree = Dsf_congest.Bfs.build g ~root:0 in
        let items = List.init 128 (fun i -> i + 1) in
        fun env ->
          Dsf_congest.Tree_ops.broadcast ~env g ~tree ~items ~bits:item_bits );
    ( "filtered_upcast path",
      Upto 4096,
      fun n ->
        let g = flat_graph n and tree = flat_tree n in
        let items v =
          if v > 0 && v mod 16 = 0 then
            [ { Dsf_congest.Pipeline.key = (1, v); a = v - 1; b = v } ]
          else []
        in
        fun env ->
          ignore
            (Dsf_congest.Pipeline.filtered_upcast ~env g ~tree ~vn:n ~pre:[]
               ~items ~cmp:compare ~bits:(fun _ -> 30)) );
    ( "token_flood path",
      Upto max_int,
      fun n ->
        let g = flat_graph n in
        let parent = Array.init n (fun v -> v - 1) in
        let seeds = Array.make n false in
        seeds.(n - 1) <- true;
        fun env -> ignore (Dsf_core.Select.token_flood ~env g ~parent ~seeds) );
    ( "exchange path",
      Upto max_int,
      fun n ->
        let g = flat_graph n in
        fun env -> Dsf_congest.Exchange.all_neighbors ~env g ~payload_bits:9 );
  ]

(* Best-of-reps wall clock and minor words of one workload at one size. *)
let measure_flat_size workload flat n =
  (* Seconds-long flat runs at the top size are stable enough for a
     single repetition; the small sizes keep best-of-3. *)
  let reps = if n >= 16384 then 1 else 3 in
  let best = ref infinity and words = ref infinity and rounds = ref 0 in
  for _ = 1 to reps do
    let ledger = Dsf_congest.Ledger.create () in
    let env = { Sim.default_env with ledger = Some ledger } in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    flat env;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    let w = Gc.minor_words () -. w0 in
    rounds := Dsf_congest.Ledger.simulated ledger;
    if ns < !best then best := ns;
    if w < !words then words := w
  done;
  {
    fl_workload = workload;
    fl_n = n;
    fl_rounds = !rounds;
    fl_wall_ns = !best;
    fl_rps = float_of_int !rounds *. 1e9 /. !best;
    fl_words_per_round = !words /. float_of_int (max 1 !rounds);
  }

let measure_flat ~sizes () =
  List.concat_map
    (fun (workload, size, make) ->
      match size with
      | Fixed n -> [ measure_flat_size workload (make n) n ]
      | Upto max_n ->
          List.concat_map
            (fun n ->
              if n <= max_n then [ measure_flat_size workload (make n) n ]
              else begin
                Format.printf
                  "flat_engine: %S skipped at n=%d (memory cap: n <= %d)@."
                  workload n max_n;
                []
              end)
            sizes)
    flat_workloads

let print_flat rows =
  Format.printf "@.%-28s %8s %8s %14s %12s %14s@." "flat engine" "n"
    "rounds" "wall ns" "rounds/s" "words/round";
  List.iter
    (fun f ->
      Format.printf "%-28s %8d %8d %14.0f %12.3e %14.1f@." f.fl_workload
        f.fl_n f.fl_rounds f.fl_wall_ns f.fl_rps f.fl_words_per_round)
    rows

(* --------------------------------------------------------------- flat e2e *)

(* End-to-end Det_dsf solves with every simulated subroutine on the flat
   engine (native ports where they exist, the adapter elsewhere) — the
   demonstration that the whole Theorem 4.17 emulation runs at
   n >= 10^4.  Three instance families: the path (wavefront-dominated
   worst case), a random connected graph (shallow), and the scaled
   Figure-1 set-disjointness gadget.  [e2_rounds] and [e2_weight] are
   deterministic (the differential suite proves the flat solve
   bit-identical), so bin/ci.sh's jobs-diff covers them; the JSON "jobs"
   is always 1, as in the flat_engine rows. *)

type e2e_row = {
  e2_workload : string;
  e2_n : int;
  e2_rounds : int;  (* ledger-simulated rounds of the whole solve *)
  e2_weight : int;  (* deterministic check value *)
  e2_wall_ns : float;
  e2_rps : float;
  e2_words_per_round : float;
}

let e2e_instance family n =
  match family with
  | `Path ->
      let r = Dsf_util.Rng.create (2000 + n) in
      Inst.make_ic (flat_graph n) (Gen.random_labels r ~n ~t:16 ~k:4)
  | `Random ->
      let r = Dsf_util.Rng.create (3000 + n) in
      let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:10 in
      Inst.make_ic g (Gen.random_labels r ~n ~t:16 ~k:4)
  | `Gadget ->
      (* ic_gadget builds n = 2*universe + 2 nodes, so this hits n exactly
         for the even sizes used here. *)
      let universe = (n - 2) / 2 in
      let r = Dsf_util.Rng.create (4000 + n) in
      let a, b =
        Dsf_lower_bound.Gadgets.random_sets r ~universe ~density:0.5
          ~force_intersect:true
      in
      (Dsf_lower_bound.Gadgets.ic_gadget ~universe ~a ~b)
        .Dsf_lower_bound.Gadgets.ic

let measure_e2e ~sizes () =
  List.concat_map
    (fun (name, fam) ->
      List.map
        (fun n ->
          let inst = e2e_instance fam n in
          ignore (Dsf_graph.Graph.csr inst.Inst.graph);
          let w0 = Gc.minor_words () in
          let t0 = Unix.gettimeofday () in
          let r = Dsf_core.Det_dsf.run inst in
          let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
          let words = Gc.minor_words () -. w0 in
          let rounds =
            Dsf_congest.Ledger.simulated r.Dsf_core.Det_dsf.ledger
          in
          {
            e2_workload = name;
            e2_n = n;
            e2_rounds = rounds;
            e2_weight = r.Dsf_core.Det_dsf.weight;
            e2_wall_ns = ns;
            e2_rps = float_of_int rounds *. 1e9 /. ns;
            e2_words_per_round = words /. float_of_int (max 1 rounds);
          })
        sizes)
    [ "det_dsf path", `Path; "det_dsf random", `Random;
      "det_dsf gadget", `Gadget ]

let print_e2e rows =
  Format.printf "@.%-28s %8s %10s %10s %14s %12s %14s@."
    "flat e2e (det_dsf)" "n" "rounds" "weight" "wall ns" "rounds/s"
    "words/round";
  List.iter
    (fun e ->
      Format.printf "%-28s %8d %10d %10d %14.0f %12.3e %14.1f@." e.e2_workload
        e.e2_n e.e2_rounds e.e2_weight e.e2_wall_ns e.e2_rps
        e.e2_words_per_round)
    rows

(* ----------------------------------------------------- recorder overhead *)

(* Flight-recorder cost on representative flat det_dsf solves: the same
   instance solved bare and with a recorder attached through telemetry —
   the exact path `dsf_cli solve --record` takes.  [ro_events],
   [ro_log_bytes] and [ro_rounds] are deterministic (the recorder is
   created at ~now:0 so the serialized header does not embed wall time);
   the wall columns are timing-class noise that bench compare keeps in
   its advisory lane.

   Bare and recorded solves run as [recorder_pairs] adjacent pairs, the
   order flipped every pair, so a slow stretch on a shared host hits
   both legs of a pair alike.  [ro_overhead_pct] is the median of the
   pairs' overheads, [ro_ns_per_event] the median of the pairs' extra
   wall time divided by the log's events, and the two wall columns are
   the medians of their legs.  Every event append is a handful of int
   stores into the run's staging buffer, and the barrier flush is
   O(events). *)

type recorder_row = {
  ro_workload : string;
  ro_n : int;
  ro_rounds : int;
  ro_events : int;
  ro_log_bytes : int;
  ro_base_wall_ns : float;
  ro_rec_wall_ns : float;
  ro_overhead_pct : float;
  ro_ns_per_event : float;
}

let recorder_pairs = 7

let measure_recorder () =
  List.map
    (fun (name, fam, n) ->
      let inst = e2e_instance fam n in
      ignore (Dsf_graph.Graph.csr inst.Inst.graph);
      let timed f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        r, (Unix.gettimeofday () -. t0) *. 1e9
      in
      let bare () = Dsf_core.Det_dsf.run inst in
      let recorded () =
        let r = Dsf_congest.Recorder.create ~now:0 () in
        let tel = Dsf_congest.Telemetry.create ~recorder:r () in
        r, Dsf_core.Det_dsf.run ~telemetry:tel inst
      in
      let pairs =
        List.init recorder_pairs (fun i ->
            let (base, base_ns), ((rcd, res), rec_ns) =
              if i mod 2 = 0 then
                let b = timed bare in
                b, timed recorded
              else
                let r = timed recorded in
                timed bare, r
            in
            if res.Dsf_core.Det_dsf.weight <> base.Dsf_core.Det_dsf.weight
            then failwith "recorder_overhead: recording changed the solve";
            base, rcd, base_ns, rec_ns)
      in
      let base, rcd, _, _ = List.hd pairs in
      let events = Dsf_congest.Recorder.event_count rcd in
      let over f = Dsf_util.Stats.median (List.map (fun (_, _, b, r) -> f b r) pairs) in
      {
        ro_workload = name;
        ro_n = n;
        ro_rounds = Dsf_congest.Ledger.simulated base.Dsf_core.Det_dsf.ledger;
        ro_events = events;
        ro_log_bytes = String.length (Dsf_congest.Recorder.to_string rcd);
        ro_base_wall_ns = over (fun b _ -> b);
        ro_rec_wall_ns = over (fun _ r -> r);
        ro_overhead_pct = over (fun b r -> (r -. b) /. b *. 100.);
        ro_ns_per_event = over (fun b r -> (r -. b) /. float_of_int events);
      })
    [
      "det_dsf path", `Path, 1024;
      "det_dsf random", `Random, 1024;
      "det_dsf gadget", `Gadget, 1024;
    ]

let print_recorder rows =
  Format.printf "@.%-28s %8s %10s %10s %12s %12s %12s %10s %10s@."
    "recorder overhead" "n" "rounds" "events" "log bytes" "base ns"
    "recorded ns" "ovh %" "ns/event";
  List.iter
    (fun r ->
      Format.printf "%-28s %8d %10d %10d %12d %12.0f %12.0f %10.1f %10.1f@."
        r.ro_workload r.ro_n r.ro_rounds r.ro_events r.ro_log_bytes
        r.ro_base_wall_ns r.ro_rec_wall_ns r.ro_overhead_pct
        r.ro_ns_per_event)
    rows

(* ------------------------------------------------------- flatcheck smoke *)

(* Flat-vs-reference differential smoke for bin/ci.sh (`-- flatcheck`): a
   handful of stock workloads on the production engine and on
   [run_reference], comparing full results (states, trees, stats); exits
   nonzero on any divergence — the same contract the qcheck differential
   suite enforces, as a standalone CI step that needs no test runner. *)
let flat_check () =
  let ok = ref true in
  let check name b =
    Format.printf "flatcheck: %-32s %s@." name (if b then "ok" else "DIVERGED");
    if not b then ok := false
  in
  let g40 = Lazy.force shared_graph in
  let p256 = Lazy.force path256 in
  (* Results and measured stats must both match. *)
  let bf g =
    Sim.measure (fun env -> Dsf_congest.Bellman_ford.sssp ~env g ~src:0)
  in
  check "bellman-ford random n=40" (bf g40 = in_reference (fun () -> bf g40));
  check "bellman-ford path n=256" (bf p256 = in_reference (fun () -> bf p256));
  let bfs g = Sim.measure (fun env -> Dsf_congest.Bfs.build ~env g ~root:0) in
  check "bfs random n=40" (bfs g40 = in_reference (fun () -> bfs g40));
  (* The raw native protocol must reproduce the reference tree and stats. *)
  let tree, stats = in_reference (fun () -> bfs p256) in
  let fstates, fstats =
    Sim.run_flat p256
      (Dsf_congest.Bfs.flat_protocol ~n:(Dsf_graph.Graph.n p256) ~root:0)
  in
  let n = Dsf_graph.Graph.n p256 in
  let same = ref (stats = fstats) in
  Array.iteri
    (fun v packed ->
      match Dsf_congest.Bfs.flat_state_parent_depth ~n packed with
      | Some (p, d)
        when p = tree.Dsf_congest.Bfs.parent.(v)
             && d = tree.Dsf_congest.Bfs.depth.(v) ->
          ()
      | _ -> same := false)
    fstates;
  check "native flat bfs path n=256" !same;
  if not !ok then exit 1

(* --------------------------------------------------------- fault overhead *)

(* Hardening overhead at increasing drop probability: a hardened leader
   flood on the shared graph vs its lossless baseline.  Every field is
   counted rounds/messages driven by the plan's PRF — no wall clock — so
   the section is deterministic and jobs-invariant, and the ci.sh diff
   covers it without stripping. *)

type fault_row = {
  drop : float;
  lossless_rounds : int;
  hardened_rounds : int;
  hardened_messages : int;
  retransmissions : int;
  fdropped : int;
  masked : bool;
}

let fault_overhead () =
  let g = Lazy.force shared_graph in
  let proto = Dsf_congest.Leader.protocol g in
  let lossless, base = Sim.run_flat g proto in
  List.map
    (fun drop ->
      let plan =
        if drop = 0. then Dsf_congest.Fault.empty
        else Dsf_congest.Fault.plan ~drop ~seed:808 ()
      in
      let states, stats =
        Dsf_congest.Fault.sim_run
          ~env:
            {
              Sim.default_env with
              network = Sim.Chaos plan;
            }
          g proto
      in
      {
        drop;
        lossless_rounds = base.Sim.rounds;
        hardened_rounds = stats.Sim.rounds;
        hardened_messages = stats.Sim.messages;
        retransmissions = stats.Sim.retransmissions;
        fdropped = stats.Sim.dropped;
        masked = states = lossless;
      })
    [ 0.0; 0.1; 0.3 ]

let print_fault_overhead fo =
  Format.printf "@.%-20s %10s %14s %10s %10s %8s@." "fault overhead" "drop p"
    "rounds (vs)" "messages" "retrans" "masked";
  List.iter
    (fun f ->
      Format.printf "%-20s %10.2f %8d (%4d) %10d %10d %8s@." "hardened leader"
        f.drop f.hardened_rounds f.lossless_rounds f.hardened_messages
        f.retransmissions
        (if f.masked then "yes" else "NO"))
    fo

(* ----------------------------------------------------------- phase profile *)

(* Per-phase round/bit attribution for the E1 and A6 sweeps, recorded into
   BENCH_sim.json so later PRs can diff *where* the rounds go, not just how
   many there are.  E1's instance family (seed 100, t=8, k=3) is solved by
   the Algorithm-1 emulation (Det_dsf — the distributed counterpart of the
   moat growing E1 checks centrally); A6's hardened leader flood runs at
   the same drop probabilities as the ablation.  The telemetry clock is a
   constant, so every recorded field is deterministic and jobs-invariant —
   the ci.sh jobs-diff covers this section without stripping. *)

module Telemetry = Dsf_congest.Telemetry

let run_profiled_workloads tel =
  Telemetry.span tel "E1" (fun () ->
      let r = Dsf_util.Rng.create 100 in
      let g = Gen.random_connected r ~n:40 ~extra_edges:30 ~max_w:10 in
      let labels = Gen.random_labels r ~n:40 ~t:8 ~k:3 in
      ignore (Dsf_core.Det_dsf.run ~telemetry:tel (Inst.make_ic g labels)));
  Telemetry.span tel "A6" (fun () ->
      let g = Lazy.force shared_graph in
      let proto = Dsf_congest.Leader.protocol g in
      List.iter
        (fun (label, plan) ->
          Telemetry.span tel label (fun () ->
              ignore
                (Dsf_congest.Fault.sim_run
                   ~env:
                     {
                       Sim.default_env with
                       telemetry = Some tel;
                       network = Sim.Chaos plan;
                     }
                   g proto)))
        [
          "drop=0.00", Dsf_congest.Fault.empty;
          "drop=0.10", Dsf_congest.Fault.plan ~drop:0.1 ~seed:808 ();
          "drop=0.30", Dsf_congest.Fault.plan ~drop:0.3 ~seed:808 ();
        ])

type profile_row = {
  path : string;
  span_count : int;
  p_rounds : int;
  p_messages : int;
  p_bits : int;
  p_merb : int;
  p_ledger_charged : int;
  p_dropped : int;
  p_retrans : int;
}

let flatten_profile tel =
  let rows = ref [] in
  let rec go prefix (s : Telemetry.span) =
    let path =
      if prefix = "" then s.Telemetry.name
      else prefix ^ "/" ^ s.Telemetry.name
    in
    rows :=
      {
        path;
        span_count = s.Telemetry.count;
        p_rounds = s.Telemetry.rounds;
        p_messages = s.Telemetry.messages;
        p_bits = s.Telemetry.bits;
        p_merb = s.Telemetry.max_edge_round_bits;
        p_ledger_charged = s.Telemetry.ledger_charged;
        p_dropped = s.Telemetry.dropped;
        p_retrans = s.Telemetry.retransmissions;
      }
      :: !rows;
    List.iter (go path) s.Telemetry.children
  in
  List.iter (go "") (Telemetry.root_spans tel);
  List.rev !rows

let phase_profile () =
  let tel = Telemetry.create ~clock:(fun () -> 0L) () in
  run_profiled_workloads tel;
  flatten_profile tel

(* --------------------------------------------------------- fault recovery *)

(* Crash-recovery cost vs crash rate: the A6 hardened leader flood and the
   E1 det_dsf solve, each checkpoint-hardened under a fixed drop/duplicate
   plan with an increasing number of crash-restart windows.  Every
   hardened run replays the plan from its own round 0, so the windows are
   per hardened run: the leader row is one run, a det solve many (its
   primitives each run hardened), and its restores scale with both.
   Every counted field (runs, rounds, retransmissions, recovery rounds,
   checkpoint bits) is driven by the plan's PRF and jobs-invariant;
   [rv_wall_overhead] is the one measured field, stripped by the ci.sh
   jobs diff alongside the other wall-clock keys. *)

type recovery_row = {
  rv_workload : string;
  rv_crash_windows : int;  (* per hardened run *)
  rv_hardened_runs : int;
  rv_base_rounds : int;  (* fault-free baseline *)
  rv_rounds : int;
  rv_retrans : int;
  rv_restores : int;
  rv_recovery_rounds : int;
  rv_checkpoint_bits : int;
  rv_wall_overhead : float;  (* hardened wall / fault-free wall *)
  rv_masked : bool;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Distinct crash nodes for up to 6 windows at the sizes used here, all in
   the early rounds so they bite before the protocols quiesce. *)
let recovery_plan ~n ~windows ~seed =
  let crashes =
    List.init windows (fun i ->
        ((53 * (i + 1)) mod n, 1 + (i mod 5), 4 + (i mod 5) + (i mod 3)))
  in
  Dsf_congest.Fault.plan ~drop:0.05 ~duplicate:0.02 ~crashes ~seed ()

(* A hardened run's recovery work, read from the [fault/*] counters its
   telemetry gathered. *)
let fault_counter tel name =
  Dsf_util.Metrics.counter_value (Telemetry.metrics tel) name

(* The hardened runs a telemetry saw: the occurrences of every
   ["hardened"] span, wherever in the tree [Fault.sim_run] opened it. *)
let hardened_runs tel =
  let rec go (s : Telemetry.span) =
    List.fold_left
      (fun acc c -> acc + go c)
      (if s.name = "hardened" then s.count else 0)
      s.children
  in
  go (Telemetry.root tel)

let recovery_leader ~windows =
  let g = Lazy.force shared_graph in
  let n = Dsf_graph.Graph.n g in
  let proto = Dsf_congest.Leader.protocol g in
  let (lossless, base), base_wall = timed (fun () -> Sim.run_flat g proto) in
  let plan = recovery_plan ~n ~windows ~seed:808 in
  let tel = Telemetry.create ~clock:(fun () -> 0L) () in
  let (states, stats), wall =
    timed (fun () ->
        Dsf_congest.Fault.sim_run
          ~env:
            {
              Sim.default_env with
              telemetry = Some tel;
              network = Sim.Chaos plan;
            }
          ~recovery:(Dsf_congest.Fault.immutable ())
          g proto)
  in
  {
    rv_workload = "A6 leader";
    rv_crash_windows = windows;
    rv_hardened_runs = hardened_runs tel;
    rv_base_rounds = base.Sim.rounds;
    rv_rounds = stats.Sim.rounds;
    rv_retrans = fault_counter tel "fault/retransmissions";
    rv_restores = fault_counter tel "fault/restores";
    rv_recovery_rounds = fault_counter tel "fault/recovery_rounds";
    rv_checkpoint_bits = fault_counter tel "fault/checkpoint_bits";
    rv_wall_overhead = wall /. base_wall;
    rv_masked = states = lossless;
  }

let recovery_det_dsf ~windows =
  let r = Dsf_util.Rng.create 100 in
  let g = Gen.random_connected r ~n:40 ~extra_edges:30 ~max_w:10 in
  let labels = Gen.random_labels r ~n:40 ~t:8 ~k:3 in
  let inst = Inst.make_ic g labels in
  let base, base_wall = timed (fun () -> Dsf_core.Det_dsf.run inst) in
  let plan = recovery_plan ~n:40 ~windows ~seed:909 in
  let tel = Telemetry.create ~clock:(fun () -> 0L) () in
  let res, wall =
    timed (fun () ->
        Dsf_core.Det_dsf.run ~telemetry:tel ~chaos:plan inst)
  in
  let total l = Dsf_congest.Ledger.total l in
  {
    rv_workload = "E1 det_dsf";
    rv_crash_windows = windows;
    rv_hardened_runs = hardened_runs tel;
    rv_base_rounds = total base.Dsf_core.Det_dsf.ledger;
    rv_rounds = total res.Dsf_core.Det_dsf.ledger;
    rv_retrans = fault_counter tel "fault/retransmissions";
    rv_restores = fault_counter tel "fault/restores";
    rv_recovery_rounds = fault_counter tel "fault/recovery_rounds";
    rv_checkpoint_bits = fault_counter tel "fault/checkpoint_bits";
    rv_wall_overhead = wall /. base_wall;
    rv_masked =
      res.Dsf_core.Det_dsf.solution = base.Dsf_core.Det_dsf.solution
      && res.Dsf_core.Det_dsf.weight = base.Dsf_core.Det_dsf.weight
      && Dsf_core.Frac.compare res.Dsf_core.Det_dsf.dual
           base.Dsf_core.Det_dsf.dual
         = 0;
  }

let fault_recovery () =
  let windows = [ 0; 2; 6 ] in
  List.map (fun w -> recovery_leader ~windows:w) windows
  @ List.map (fun w -> recovery_det_dsf ~windows:w) windows

let print_fault_recovery fr =
  Format.printf "@.%-14s %12s %6s %16s %8s %9s %11s %10s %7s %7s@."
    "fault recovery" "windows/run" "runs" "rounds (vs)" "retrans" "restores"
    "rec rounds" "ckpt bits" "wall x" "masked";
  List.iter
    (fun v ->
      Format.printf "%-14s %12d %6d %9d (%4d) %8d %9d %11d %10d %7.2f %7s@."
        v.rv_workload v.rv_crash_windows v.rv_hardened_runs v.rv_rounds
        v.rv_base_rounds
        v.rv_retrans v.rv_restores v.rv_recovery_rounds v.rv_checkpoint_bits
        v.rv_wall_overhead
        (if v.rv_masked then "yes" else "NO"))
    fr

(* bench/main.exe --trace: the same workloads under the real clock, written
   through the requested sink. *)
let write_trace ~format path =
  let tel = Telemetry.create () in
  run_profiled_workloads tel;
  Telemetry.write_file tel ~format path;
  if path <> "-" then Format.printf "wrote trace to %s@." path

(* --------------------------------------------------------------- metadata *)

let git_rev () =
  let line_of path =
    try
      let ic = open_in path in
      let l = (try Some (input_line ic) with End_of_file -> None) in
      close_in ic;
      Option.map String.trim l
    with Sys_error _ -> None
  in
  match line_of ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let r = String.sub head 5 (String.length head - 5) in
      (match line_of (Filename.concat ".git" r) with
      | Some rev -> rev
      | None -> (
          (* Detached ref file: fall back to .git/packed-refs. *)
          try
            let ic = open_in ".git/packed-refs" in
            let found = ref "unknown" in
            (try
               while true do
                 match String.split_on_char ' ' (input_line ic) with
                 | [ rev; name ] when name = r -> found := rev
                 | _ -> ()
               done
             with End_of_file -> ());
            close_in ic;
            !found
          with Sys_error _ -> "unknown"))
  | Some head -> head

let utc_date () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* ------------------------------------------------------------------ JSON *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then "null"
  else Printf.sprintf "%.1f" x

let write_json ~mode ~jobs rows sp scaling fo fr flat e2e rcd profile path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"schema\": \"dsf-bench-sim/11\",\n  \"mode\": %S,\n" mode;
  p "  \"git_rev\": \"%s\",\n" (json_escape (git_rev ()));
  p "  \"utc_date\": \"%s\",\n" (utc_date ());
  p "  \"jobs\": %d,\n" jobs;
  p "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      let rounds, rps =
        match r.rounds_per_run with
        | Some rounds when r.ns_per_run > 0. ->
            ( string_of_int rounds,
              json_float (float_of_int rounds *. 1e9 /. r.ns_per_run) )
        | _ -> "null", "null"
      in
      p
        "    {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s, \
         \"minor_words_per_run\": %s, \"rounds_per_run\": %s, \
         \"rounds_per_sec\": %s}%s\n"
        (json_escape r.name) (json_float r.ns_per_run) (json_float r.r2)
        (json_float r.minor_words) rounds rps
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n  \"speedups\": [\n";
  List.iteri
    (fun i (s : speedup) ->
      p
        "    {\"workload\": \"%s\", \"reference_ns\": %s, \"flat_ns\": %s, \
         \"speedup\": %s}%s\n"
        (json_escape s.workload) (json_float s.reference_ns)
        (json_float s.flat_ns)
        (json_float (s.reference_ns /. s.flat_ns))
        (if i = List.length sp - 1 then "" else ","))
    sp;
  p "  ],\n  \"parallel_scaling\": [\n";
  List.iteri
    (fun i s ->
      let base = match s.runs with (_, ns) :: _ -> ns | [] -> nan in
      p "    {\"workload\": \"%s\", \"check\": %d, \"runs\": ["
        (json_escape s.workload) s.check;
      List.iteri
        (fun j (jobs, ns) ->
          p "%s{\"jobs\": %d, \"wall_ns\": %s, \"speedup_vs_j1\": %s}"
            (if j = 0 then "" else ", ")
            jobs (json_float ns)
            (json_float (base /. ns)))
        s.runs;
      p "]}%s\n" (if i = List.length scaling - 1 then "" else ","))
    scaling;
  p "  ],\n  \"flat_engine\": [\n";
  List.iteri
    (fun i f ->
      p
        "    {\"workload\": \"%s\", \"n\": %d, \"jobs\": 1, \
         \"rounds\": %d, \"wall_ns\": %s, \"rounds_per_sec\": %s, \
         \"minor_words_per_round\": %s}%s\n"
        (json_escape f.fl_workload) f.fl_n f.fl_rounds
        (json_float f.fl_wall_ns)
        (json_float f.fl_rps)
        (json_float f.fl_words_per_round)
        (if i = List.length flat - 1 then "" else ","))
    flat;
  p "  ],\n  \"flat_e2e\": [\n";
  List.iteri
    (fun i e ->
      p
        "    {\"workload\": \"%s\", \"n\": %d, \"jobs\": 1, \"rounds\": %d, \
         \"weight\": %d, \"wall_ns\": %s, \"rounds_per_sec\": %s, \
         \"minor_words_per_round\": %s}%s\n"
        (json_escape e.e2_workload) e.e2_n e.e2_rounds e.e2_weight
        (json_float e.e2_wall_ns)
        (json_float e.e2_rps)
        (json_float e.e2_words_per_round)
        (if i = List.length e2e - 1 then "" else ","))
    e2e;
  p "  ],\n  \"fault_overhead\": [\n";
  List.iteri
    (fun i f ->
      p
        "    {\"drop\": %.2f, \"lossless_rounds\": %d, \"hardened_rounds\": \
         %d, \"hardened_messages\": %d, \"retransmissions\": %d, \
         \"dropped\": %d, \"states_match\": %b}%s\n"
        f.drop f.lossless_rounds f.hardened_rounds f.hardened_messages
        f.retransmissions f.fdropped f.masked
        (if i = List.length fo - 1 then "" else ","))
    fo;
  p "  ],\n  \"fault_recovery\": [\n";
  List.iteri
    (fun i v ->
      let wall =
        let w = v.rv_wall_overhead in
        if Float.is_nan w || w = Float.infinity then "null"
        else Printf.sprintf "%.3f" w
      in
      p
        "    {\"workload\": \"%s\", \"crash_windows\": %d, \
         \"hardened_runs\": %d, \"base_rounds\": %d, \"rounds\": %d, \
         \"retransmissions\": %d, \"restores\": %d, \
         \"recovery_rounds\": %d, \"checkpoint_bits\": %d, \
         \"wall_overhead\": %s, \"masked\": %b}%s\n"
        (json_escape v.rv_workload) v.rv_crash_windows v.rv_hardened_runs
        v.rv_base_rounds v.rv_rounds v.rv_retrans v.rv_restores
        v.rv_recovery_rounds v.rv_checkpoint_bits wall v.rv_masked
        (if i = List.length fr - 1 then "" else ","))
    fr;
  p "  ],\n  \"recorder_overhead\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"workload\": \"%s\", \"n\": %d, \"rounds\": %d, \"events\": \
         %d, \"log_bytes\": %d, \"base_wall_ns\": %s, \"rec_wall_ns\": %s, \
         \"overhead_pct\": %s, \"ns_per_event\": %s}%s\n"
        (json_escape r.ro_workload) r.ro_n r.ro_rounds r.ro_events
        r.ro_log_bytes
        (json_float r.ro_base_wall_ns)
        (json_float r.ro_rec_wall_ns)
        (json_float r.ro_overhead_pct)
        (json_float r.ro_ns_per_event)
        (if i = List.length rcd - 1 then "" else ","))
    rcd;
  p "  ],\n  \"phase_profile\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"path\": \"%s\", \"count\": %d, \"rounds\": %d, \"messages\": \
         %d, \"bits\": %d, \"max_edge_round_bits\": %d, \"ledger_charged\": \
         %d, \"dropped\": %d, \"retransmissions\": %d}%s\n"
        (json_escape r.path) r.span_count r.p_rounds r.p_messages r.p_bits
        r.p_merb r.p_ledger_charged r.p_dropped r.p_retrans
        (if i = List.length profile - 1 then "" else ","))
    profile;
  p "  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote %s@." path

(* ------------------------------------------------------------------ modes *)

let run ?(jobs = Dsf_util.Pool.default_jobs ()) ?(out = "BENCH_sim.json") () =
  Format.printf "@.=== Bechamel wall-clock microbenchmarks ===@.";
  let rows = measure ~quota:0.5 (tests @ sim_tests @ indexed_tests) in
  print_rows rows;
  let sp = speedups rows in
  print_speedups sp;
  let scaling = measure_scaling () in
  print_scaling scaling;
  let flat = measure_flat ~sizes:flat_sizes () in
  print_flat flat;
  let e2e = measure_e2e ~sizes:flat_sizes () in
  print_e2e e2e;
  let fo = fault_overhead () in
  print_fault_overhead fo;
  let fr = fault_recovery () in
  print_fault_recovery fr;
  let rcd = measure_recorder () in
  print_recorder rcd;
  write_json ~mode:"micro" ~jobs rows sp scaling fo fr flat e2e rcd
    (phase_profile ()) out

(* Smoke caps the flat sweeps at n=4096 and the e2e solve at n=256: the
   full n=16384 legs cost tens of seconds each and belong to `-- micro`;
   the every-PR CI contract is jobs-invariance and GC-budget checks, which
   the small sizes already exercise. *)
let smoke ?(jobs = Dsf_util.Pool.default_jobs ()) ?(out = "BENCH_sim.json") () =
  Format.printf "@.=== Simulator smoke benchmarks (CI) ===@.";
  let rows = measure ~quota:0.05 sim_tests in
  print_rows rows;
  let sp = speedups rows in
  print_speedups sp;
  let scaling = measure_scaling () in
  print_scaling scaling;
  let flat = measure_flat ~sizes:flat_smoke_sizes () in
  print_flat flat;
  let e2e = measure_e2e ~sizes:[ 256 ] () in
  print_e2e e2e;
  let fo = fault_overhead () in
  print_fault_overhead fo;
  let fr = fault_recovery () in
  print_fault_recovery fr;
  let rcd = measure_recorder () in
  print_recorder rcd;
  write_json ~mode:"smoke" ~jobs rows sp scaling fo fr flat e2e rcd
    (phase_profile ()) out
