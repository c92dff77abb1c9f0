(* Experiment harness: one table per claim of the paper (the paper is a
   theory paper — its "tables and figures" are its theorems, lower bounds
   and the Figure 1 gadgets; see DESIGN.md's experiment index).  Every
   experiment prints the measured quantities next to the claimed shape and
   a PASS/FAIL verdict on the shape. *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance
module Exact = Dsf_graph.Exact
module Paths = Dsf_graph.Paths
module Ledger = Dsf_congest.Ledger
module Stats = Dsf_util.Stats
module Rng = Dsf_util.Rng
module Pool = Dsf_util.Pool

let header title claim =
  Format.printf "@.=== %s ===@.claim: %s@." title claim

(* Prints the verdict line and hands the verdict back, so [run_all] can
   count the failures. *)
let verdict name ok =
  Format.printf "--> %s: %s@." name (if ok then "PASS" else "FAIL");
  ok

let random_instance ?(n = 40) ?(extra = 30) ?(max_w = 10) ~t ~k seed =
  let r = Rng.create seed in
  let g = Gen.random_connected r ~n ~extra_edges:extra ~max_w in
  let labels = Gen.random_labels r ~n ~t ~k in
  Instance.make_ic g labels

(* ------------------------------------------------------------------- E1 *)

let e1 ~jobs () =
  header "E1 (Theorem 4.1)"
    "centralized moat growing is feasible and within 2x OPT; its dual lower-bounds OPT";
  Format.printf "%6s %4s %4s %6s %6s %8s %8s@." "seed" "t" "k" "OPT" "W" "W/OPT"
    "dual";
  (* The seed sweep fans out on the domain pool (solve + exact-OPT DP per
     seed are independent); rows are printed afterwards, in seed order. *)
  let rows =
    Pool.map_chunked ~jobs
      (fun seed ->
        let inst = random_instance ~t:8 ~k:3 seed in
        let res = Dsf_core.Moat.run inst in
        let opt = Exact.steiner_forest_weight inst in
        seed, inst, res, opt)
      (Array.init 12 (fun i -> 100 + i))
  in
  let ratios = ref [] in
  let ok = ref true in
  Array.iter
    (fun (seed, inst, res, opt) ->
      let ratio = float_of_int res.Dsf_core.Moat.weight /. float_of_int opt in
      ratios := ratio :: !ratios;
      let dual = Dsf_core.Frac.to_float res.Dsf_core.Moat.dual in
      if
        (not (Instance.is_feasible inst res.Dsf_core.Moat.solution))
        || ratio > 2.0 +. 1e-9
        || dual > float_of_int opt +. 1e-6
      then ok := false;
      Format.printf "%6d %4d %4d %6d %6d %8.3f %8.2f@." seed 8 3 opt
        res.Dsf_core.Moat.weight ratio dual)
    rows;
  let lo, mean, hi = (fun l -> Stats.min_max l, Stats.mean l) !ratios |> fun ((a, b), c) -> a, c, b in
  Format.printf "ratio: min=%.3f mean=%.3f max=%.3f (bound 2.000)@." lo mean hi;
  verdict "E1" !ok

(* ------------------------------------------------------------------- E2 *)

let e2 () =
  header "E2 (Theorem 4.2)"
    "rounded moat growing is within (2+eps) x OPT; growth phases ~ O(log/eps)";
  Format.printf "%8s %6s %10s %10s %14s@." "eps" "seed" "W/OPT" "bound"
    "growth phases";
  let ok = ref true in
  List.iter
    (fun (en, ed) ->
      let eps = float_of_int en /. float_of_int ed in
      List.iter
        (fun seed ->
          let inst = random_instance ~t:8 ~k:3 seed in
          let res = Dsf_core.Moat_rounded.run ~eps_num:en ~eps_den:ed inst in
          let opt = Exact.steiner_forest_weight inst in
          let ratio =
            float_of_int res.Dsf_core.Moat_rounded.weight /. float_of_int opt
          in
          if ratio > 2.0 +. eps +. 1e-9 then ok := false;
          Format.printf "%8.2f %6d %10.3f %10.2f %14d@." eps seed ratio
            (2.0 +. eps) res.Dsf_core.Moat_rounded.growth_phases)
        [ 201; 202; 203 ])
    [ 1, 1; 1, 2; 1, 10 ];
  verdict "E2" !ok

(* ------------------------------------------------------------------- E3 *)

let e3 () =
  header "E3 (Theorem 4.17)"
    "Det_dsf solves DSF-IC at factor 2 in O(ks + t) rounds: rounds scale ~linearly in k and in s";
  (* (a) sweep k on the adversarial broom family (tail fixed, so s is
     ~fixed and every merge phase re-sweeps the tail). *)
  let tail = 100 in
  Format.printf "-- sweep k (broom, tail=%d, s ~fixed) --@." tail;
  Format.printf "%4s %6s %8s %10s@." "k" "s" "phases" "rounds";
  let pts_k =
    List.map
      (fun k ->
        let g, labels =
          Gen.broom ~tail ~arm_lengths:(List.init k (fun j -> j + 1))
        in
        let inst = Instance.make_ic g labels in
        let res = Dsf_core.Det_dsf.run inst in
        let _, _, s = Paths.parameters g in
        let rounds = Ledger.total res.Dsf_core.Det_dsf.ledger in
        Format.printf "%4d %6d %8d %10d@." k s res.Dsf_core.Det_dsf.phase_count
          rounds;
        float_of_int k, float_of_int rounds)
      [ 2; 4; 8; 16 ]
  in
  let slope_k = Stats.loglog_slope pts_k in
  (* (b) sweep s via path length, k fixed. *)
  Format.printf "-- sweep s (path graphs, k=2) --@.";
  Format.printf "%6s %6s %10s@." "n" "s" "rounds";
  let pts_s =
    List.map
      (fun n ->
        let r = Rng.create (400 + n) in
        let g = Gen.reweight r ~max_w:4 (Gen.path n) in
        let labels = Gen.random_labels r ~n ~t:4 ~k:2 in
        let inst = Instance.make_ic g labels in
        let res = Dsf_core.Det_dsf.run inst in
        let _, _, s = Paths.parameters g in
        let rounds = Ledger.total res.Dsf_core.Det_dsf.ledger in
        Format.printf "%6d %6d %10d@." n s rounds;
        float_of_int s, float_of_int rounds)
      [ 32; 64; 128; 256 ]
  in
  let slope_s = Stats.loglog_slope pts_s in
  Format.printf
    "log-log slope rounds-vs-k = %.2f, rounds-vs-s = %.2f (claim: both <= ~1 + lower-order)@."
    slope_k slope_s;
  verdict "E3" (slope_k < 1.4 && slope_s < 1.4 && slope_k > 0.2 && slope_s > 0.5)

(* ------------------------------------------------------------------- E4 *)

let e4 () =
  header "E4 (Corollary 4.21)"
    "Det_sublinear avoids Det_dsf's additive t: rounds grow ~sqrt(st) in t, not ~t";
  Format.printf "%6s %6s %14s %18s@." "t" "sigma" "Det_dsf rounds"
    "Det_sublinear rounds";
  let pts_det = ref [] and pts_sub = ref [] in
  List.iter
    (fun t ->
      let n = 4 * t in
      let r = Rng.create (500 + t) in
      let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:6 in
      let labels = Gen.random_labels r ~n ~t ~k:2 in
      let inst = Instance.make_ic g labels in
      let det = Dsf_core.Det_dsf.run inst in
      let sub = Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den:2 inst in
      let dr = Ledger.total det.Dsf_core.Det_dsf.ledger in
      let sr = Ledger.total sub.Dsf_core.Det_sublinear.ledger in
      Format.printf "%6d %6d %14d %18d@." t sub.Dsf_core.Det_sublinear.sigma dr
        sr;
      pts_det := (float_of_int t, float_of_int dr) :: !pts_det;
      pts_sub := (float_of_int t, float_of_int sr) :: !pts_sub)
    [ 8; 16; 32; 64 ];
  let sd = Stats.loglog_slope !pts_det and ss = Stats.loglog_slope !pts_sub in
  Format.printf
    "log-log slope in t: Det_dsf=%.2f  Det_sublinear=%.2f (claim: sublinear grows no faster)@."
    sd ss;
  verdict "E4" (ss <= sd +. 0.15)

(* ------------------------------------------------------------------- E5 *)

let e5 () =
  header "E5 (Theorem 5.2)"
    "Rand_dsf: O(log n)-approximate w.h.p., rounds O~(k + min(s, sqrt n) + D)";
  Format.printf "%6s %4s %6s %6s %8s %10s %10s@." "seed" "k" "OPT" "W" "W/OPT"
    "trunc" "rounds";
  let ok = ref true in
  let ratios = ref [] in
  List.iter
    (fun seed ->
      let inst = random_instance ~n:36 ~t:8 ~k:3 seed in
      let res = Dsf_core.Rand_dsf.run ~rng:(Rng.create (seed * 3)) inst in
      let opt = Exact.steiner_forest_weight inst in
      let ratio = float_of_int res.Dsf_core.Rand_dsf.weight /. float_of_int opt in
      ratios := ratio :: !ratios;
      if
        (not (Instance.is_feasible inst res.Dsf_core.Rand_dsf.solution))
        || ratio > 2.0 *. log (float_of_int 36)
      then ok := false;
      Format.printf "%6d %4d %6d %6d %8.3f %10b %10d@." seed 3 opt
        res.Dsf_core.Rand_dsf.weight ratio res.Dsf_core.Rand_dsf.truncated
        (Ledger.total res.Dsf_core.Rand_dsf.ledger))
    (List.init 8 (fun i -> 600 + i));
  Format.printf "mean ratio %.3f vs O(log n) bound %.2f@." (Stats.mean !ratios)
    (log (float_of_int 36));
  (* Round scaling in k (additive, not multiplicative). *)
  Format.printf "-- rounds vs k (cycle n=96, repetitions=1) --@.";
  let pts =
    List.map
      (fun k ->
        let n = 96 in
        let r = Rng.create (700 + k) in
        let g = Gen.reweight r ~max_w:4 (Gen.cycle n) in
        let labels = Gen.random_labels r ~n ~t:(2 * k) ~k in
        let inst = Instance.make_ic g labels in
        let res =
          Dsf_core.Rand_dsf.run ~repetitions:1 ~rng:(Rng.create k) inst
        in
        let rounds = Ledger.total res.Dsf_core.Rand_dsf.ledger in
        Format.printf "   k=%2d rounds=%d@." k rounds;
        float_of_int k, float_of_int rounds)
      [ 2; 4; 8; 16 ]
  in
  let slope = Stats.loglog_slope pts in
  Format.printf "log-log slope rounds-vs-k = %.2f (claim: << 1, k enters additively)@." slope;
  verdict "E5" (!ok && slope < 0.5)

(* ------------------------------------------------------------------- E6 *)

let e6 () =
  header "E6 (Lemma 3.1, Figure 1 left)"
    "DSF-CR needs Omega(t/log n) rounds: bits across the Alice/Bob cut grow ~linearly in the universe";
  Format.printf "%10s %6s %12s %12s %10s@." "universe" "n" "cut bits"
    "bits/elem" "answer ok";
  let pts = ref [] in
  let ok = ref true in
  List.iter
    (fun u ->
      let r = Rng.create (800 + u) in
      let a, b =
        Dsf_lower_bound.Gadgets.random_sets r ~universe:u ~density:0.5
          ~force_intersect:(u mod 2 = 0)
      in
      let gad = Dsf_lower_bound.Gadgets.cr_gadget ~universe:u ~rho:2 ~a ~b in
      let res, bits =
        Dsf_lower_bound.Gadgets.cut_bits gad.Dsf_lower_bound.Gadgets.cr_side
          (fun ~telemetry ->
            let ic =
              Dsf_core.Transform.cr_to_ic
                ~env:
                  { Dsf_congest.Sim.default_env with
                    telemetry = Some telemetry }
                gad.Dsf_lower_bound.Gadgets.cr
            in
            Dsf_core.Det_dsf.run ~telemetry ic)
      in
      let consistent =
        Dsf_lower_bound.Gadgets.cr_answer_consistent gad
          res.Dsf_core.Det_dsf.solution
      in
      if not consistent then ok := false;
      Format.printf "%10d %6d %12d %12.1f %10b@." u ((2 * u) + 4) bits
        (float_of_int bits /. float_of_int u)
        consistent;
      pts := (float_of_int u, float_of_int bits) :: !pts)
    [ 8; 16; 32; 64 ];
  let slope = Stats.loglog_slope !pts in
  Format.printf "log-log slope bits-vs-universe = %.2f (lower bound predicts >= ~1)@." slope;
  verdict "E6" (!ok && slope >= 0.8)

(* ------------------------------------------------------------------- E7 *)

let e7 () =
  header "E7 (Lemma 3.3, Figure 1 right)"
    "DSF-IC needs Omega(k/log n) rounds: the minimalization information is Omega(k) bits across the cut";
  Format.printf "%10s %12s %12s %10s@." "k=universe" "cut bits" "bits/label"
    "answer ok";
  let pts = ref [] in
  let ok = ref true in
  List.iter
    (fun u ->
      let r = Rng.create (900 + u) in
      let a, b =
        Dsf_lower_bound.Gadgets.random_sets r ~universe:u ~density:0.5
          ~force_intersect:(u mod 2 = 1)
      in
      let gad = Dsf_lower_bound.Gadgets.ic_gadget ~universe:u ~a ~b in
      let res, bits =
        Dsf_lower_bound.Gadgets.cut_bits gad.Dsf_lower_bound.Gadgets.ic_side
          (fun ~telemetry ->
            (* The honest pipeline: Det_dsf's own distributed
               minimalization is where the per-label information must
               cross the bridge. *)
            Dsf_core.Det_dsf.run ~telemetry gad.Dsf_lower_bound.Gadgets.ic)
      in
      let consistent =
        Dsf_lower_bound.Gadgets.ic_answer_consistent gad
          res.Dsf_core.Det_dsf.solution
      in
      if not consistent then ok := false;
      Format.printf "%10d %12d %12.1f %10b@." u bits
        (float_of_int bits /. float_of_int u)
        consistent;
      pts := (float_of_int u, float_of_int bits) :: !pts)
    [ 8; 16; 32; 64 ];
  let slope = Stats.loglog_slope !pts in
  Format.printf "log-log slope bits-vs-k = %.2f (lower bound predicts >= ~1)@." slope;
  verdict "E7" (!ok && slope >= 0.8)

(* ------------------------------------------------------------------- E8 *)

let e8 () =
  header "E8 (abstract)"
    "new randomized O~(s + k) beats Khan et al. O~(s k): baseline rounds grow ~k, ours stay ~flat";
  Format.printf "%4s %14s %14s %8s@." "k" "Khan rounds" "Rand rounds" "ratio";
  let pts_khan = ref [] and pts_rand = ref [] in
  List.iter
    (fun k ->
      let n = 120 in
      let r = Rng.create (1000 + k) in
      let g = Gen.reweight r ~max_w:4 (Gen.cycle n) in
      let labels = Gen.random_labels r ~n ~t:(3 * k) ~k in
      let inst = Instance.make_ic g labels in
      let kh =
        Dsf_core.Khan_etal.run ~repetitions:1 ~rng:(Rng.create k) inst
      in
      let rd =
        Dsf_core.Rand_dsf.run ~repetitions:1 ~rng:(Rng.create (k + 1)) inst
      in
      let khr = Ledger.total kh.Dsf_core.Khan_etal.ledger in
      let rdr = Ledger.total rd.Dsf_core.Rand_dsf.ledger in
      Format.printf "%4d %14d %14d %8.2f@." k khr rdr
        (float_of_int khr /. float_of_int rdr);
      pts_khan := (float_of_int k, float_of_int khr) :: !pts_khan;
      pts_rand := (float_of_int k, float_of_int rdr) :: !pts_rand)
    [ 2; 4; 8; 16; 32 ];
  let sk = Stats.loglog_slope !pts_khan and sr = Stats.loglog_slope !pts_rand in
  Format.printf
    "log-log slope in k: Khan=%.2f ours=%.2f (claim: Khan ~1, ours ~0; crossover as k grows)@."
    sk sr;
  verdict "E8" (sk > 0.6 && sr < 0.3)

(* ------------------------------------------------------------------- E9 *)

let e9 () =
  header "E9 (Section 1, Main Techniques)"
    "specialized to k=1, t=n the deterministic algorithm outputs an exact MST";
  Format.printf "%-18s %6s %10s %10s %8s@." "graph" "n" "MST" "Det_dsf" "exact";
  let ok = ref true in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let inst = Instance.make_ic g (Array.make n 0) in
      let det = Dsf_core.Det_dsf.run inst in
      let mst = Dsf_graph.Mst.weight g in
      let exact = det.Dsf_core.Det_dsf.weight = mst in
      if not exact then ok := false;
      Format.printf "%-18s %6d %10d %10d %8b@." name n mst
        det.Dsf_core.Det_dsf.weight exact)
    [
      "random sparse", Gen.random_connected (Rng.create 1) ~n:36 ~extra_edges:20 ~max_w:25;
      "random dense", Gen.random_connected (Rng.create 2) ~n:28 ~extra_edges:110 ~max_w:25;
      "weighted grid", Gen.reweight (Rng.create 3) ~max_w:9 (Gen.grid ~rows:5 ~cols:6);
      "weighted cycle", Gen.reweight (Rng.create 4) ~max_w:9 (Gen.cycle 24);
      "lollipop", Gen.reweight (Rng.create 5) ~max_w:9 (Gen.lollipop ~clique:8 ~tail:16);
    ];
  verdict "E9" !ok

(* ------------------------------------------------------------------ E10 *)

(* The rounds a transform's runs take, read from a ledger in its env. *)
(* [f] returns the transformed instance, so a closure that misses a
   labelled argument (a partial application) does not type-check. *)
let transform_rounds (f : Dsf_congest.Sim.env -> Instance.ic) =
  let ledger = Ledger.create () in
  ignore (f { Dsf_congest.Sim.default_env with ledger = Some ledger });
  Ledger.simulated ledger

let e10 () =
  header "E10 (Lemmas 2.3, 2.4)"
    "CR->IC transform in O(D + t) rounds; minimalization in O(D + k) rounds";
  Format.printf "-- CR->IC rounds vs t (grid, D fixed) --@.";
  Format.printf "%6s %6s %10s@." "t" "D" "rounds";
  let pts = ref [] in
  List.iter
    (fun t ->
      let r = Rng.create (1100 + t) in
      let g = Gen.reweight r ~max_w:5 (Gen.grid ~rows:8 ~cols:8) in
      let requests = Array.make 64 [] in
      for _ = 1 to t / 2 do
        let a = Rng.int r 64 and b = Rng.int r 64 in
        if a <> b then requests.(a) <- b :: requests.(a)
      done;
      let cr = Instance.make_cr g requests in
      let rounds = transform_rounds (fun env -> Dsf_core.Transform.cr_to_ic ~env cr) in
      let d = Paths.diameter_unweighted g in
      Format.printf "%6d %6d %10d@." t d rounds;
      pts := (float_of_int t, float_of_int rounds) :: !pts)
    [ 8; 16; 32; 64 ];
  Format.printf "-- minimalize rounds vs k (grid, D fixed) --@.";
  Format.printf "%6s %10s@." "k" "rounds";
  let pts2 = ref [] in
  List.iter
    (fun k ->
      let r = Rng.create (1200 + k) in
      let g = Gen.reweight r ~max_w:5 (Gen.grid ~rows:8 ~cols:8) in
      let labels = Gen.random_labels r ~n:64 ~t:(2 * k) ~k in
      let inst = Instance.make_ic g labels in
      (* The BFS tree is built inside the measured closure, so the row
         is Lemma 2.4's full cost, tree included. *)
      let rounds =
        transform_rounds (fun env ->
            let tree =
              Dsf_congest.Bfs.build ~env g
                ~root:(Dsf_congest.Bfs.max_id_root g)
            in
            Dsf_core.Transform.minimalize ~env ~tree inst)
      in
      Format.printf "%6d %10d@." k rounds;
      pts2 := (float_of_int k, float_of_int rounds) :: !pts2)
    [ 2; 4; 8; 16 ];
  (* Rounds = c1 + c2 * t (resp k): linear fits should have modest slopes
     and the constant ~D. *)
  let s1, c1 = Stats.linear_fit !pts in
  let s2, c2 = Stats.linear_fit !pts2 in
  Format.printf
    "linear fits: CR->IC rounds = %.2f*t + %.1f; minimalize rounds = %.2f*k + %.1f@."
    s1 c1 s2 c2;
  verdict "E10" (s1 < 4.0 && s2 < 6.0 && c1 < 80. && c2 < 80.)

(* ------------------------------------------------------------------ E11 *)

let e11 () =
  header "E11 (Section 5 / [14])"
    "virtual tree: expected O(log n) stretch; O(log n) distinct shortest-path trees per node";
  Format.printf "%6s %8s %12s %12s %14s@." "n" "log2 n" "mean stretch"
    "max stretch" "max paths/node";
  let ok = ref true in
  List.iter
    (fun n ->
      let r = Rng.create (1300 + n) in
      let g = Gen.random_connected r ~n ~extra_edges:n ~max_w:10 in
      let apsp = Paths.all_pairs g in
      let wd_bound =
        Array.fold_left (Array.fold_left Int.max) 0 apsp
      in
      let vt = Dsf_embed.Virtual_tree.build r ~wd_bound g in
      let sum = ref 0.0 and cnt = ref 0 and worst = ref 0.0 in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          let st =
            Dsf_embed.Virtual_tree.tree_distance vt u v
            /. float_of_int apsp.(u).(v)
          in
          if st < 1.0 -. 1e-9 then ok := false;
          sum := !sum +. st;
          incr cnt;
          if st > !worst then worst := st
        done
      done;
      let ppn = Dsf_embed.Virtual_tree.paths_per_node vt in
      let maxppn = Array.fold_left max 0 ppn in
      let logn = log (float_of_int n) /. log 2.0 in
      if float_of_int maxppn > 6.0 *. logn then ok := false;
      Format.printf "%6d %8.1f %12.2f %12.2f %14d@." n logn
        (!sum /. float_of_int !cnt)
        !worst maxppn)
    [ 32; 64; 128 ];
  verdict "E11" !ok

(* ------------------------------------------------------------------- F1 *)

let f1 () =
  header "F1 (Figure 1)"
    "the two Set-Disjointness gadgets, reproduced structurally, with a correct algorithm's behaviour on YES/NO instances";
  let u = 6 in
  let a = [| true; false; true; false; true; false |] in
  let b_disj = [| false; true; false; true; false; false |] in
  let b_inter = [| false; true; true; false; false; false |] in
  Format.printf "universe [6] = {1..6}; A = {1,3,5}@.";
  List.iter
    (fun (name, b) ->
      Format.printf "-- %s --@." name;
      let cg = Dsf_lower_bound.Gadgets.cr_gadget ~universe:u ~rho:2 ~a ~b in
      let g = cg.Dsf_lower_bound.Gadgets.cr.Instance.cr_graph in
      Format.printf
        "  left gadget (DSF-CR): n=%d m=%d heavy-weight=%d diameter=%d@."
        (Graph.n g) (Graph.m g)
        (Graph.edge g (List.hd cg.Dsf_lower_bound.Gadgets.heavy_edges)).Graph.w
        (Paths.diameter_unweighted g);
      let ic_res =
        Dsf_core.Det_dsf.run
          (Dsf_core.Transform.cr_to_ic cg.Dsf_lower_bound.Gadgets.cr)
      in
      let heavy_used =
        List.exists
          (fun id -> ic_res.Dsf_core.Det_dsf.solution.(id))
          cg.Dsf_lower_bound.Gadgets.heavy_edges
      in
      Format.printf "    solved: heavy edge used = %b (disjoint = %b)@."
        heavy_used
        (Dsf_lower_bound.Gadgets.disjoint a b);
      let ig = Dsf_lower_bound.Gadgets.ic_gadget ~universe:u ~a ~b in
      let g2 = ig.Dsf_lower_bound.Gadgets.ic.Instance.graph in
      Format.printf
        "  right gadget (DSF-IC): n=%d m=%d unit weights diameter=%d@."
        (Graph.n g2) (Graph.m g2)
        (Paths.diameter_unweighted g2);
      let r2 = Dsf_core.Det_dsf.run ig.Dsf_lower_bound.Gadgets.ic in
      Format.printf "    solved: bridge (a0,b0) used = %b (disjoint = %b)@."
        r2.Dsf_core.Det_dsf.solution.(ig.Dsf_lower_bound.Gadgets.bridge_edge)
        (Dsf_lower_bound.Gadgets.disjoint a b))
    [ "YES instance (A ∩ B = ∅), B = {2,4}", b_disj;
      "NO instance (3 ∈ A ∩ B), B = {2,3}", b_inter ];
  verdict "F1" true

(* ------------------------------------------------------------------ E14 *)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let e14 ~jobs () =
  header "E14 (ratio distributions)"
    "empirical approximation-ratio distributions over 40 mixed instances (the paper gives worst-case bounds; this shows typical behaviour)";
  (* Instance construction (with its exact-OPT DP) and each algorithm's
     40-instance sweep fan out on the domain pool; the pool preserves input
     order, so the reported percentiles are independent of [jobs]. *)
  let instances =
    Pool.map_chunked ~jobs
      (fun i ->
        let seed = 3000 + i in
        let r = Rng.create seed in
        let g =
          match i mod 4 with
          | 0 -> Gen.random_connected r ~n:28 ~extra_edges:22 ~max_w:9
          | 1 -> Gen.reweight r ~max_w:9 (Gen.grid ~rows:5 ~cols:6)
          | 2 -> Gen.random_geometric r ~n:28 ~radius:0.3 ~max_w:30
          | _ -> Gen.reweight r ~max_w:9 (Gen.cycle 28)
        in
        let n = Graph.n g in
        let labels = Gen.random_labels r ~n ~t:8 ~k:3 in
        let inst = Instance.make_ic g labels in
        inst, Exact.steiner_forest_weight inst, seed)
      (Array.init 40 Fun.id)
  in
  let sweep f = Array.to_list (Pool.map_chunked ~jobs f instances) in
  Format.printf "%-28s %8s %8s %8s %8s %8s@." "algorithm" "p10" "p50" "p90"
    "max" "bound";
  let ok = ref true in
  let report name bound ratios =
    let sorted = Array.of_list ratios in
    Array.sort compare sorted;
    let _, mx = Stats.min_max ratios in
    if mx > bound +. 1e-9 then ok := false;
    Format.printf "%-28s %8.3f %8.3f %8.3f %8.3f %8.2f@." name
      (percentile sorted 0.10) (percentile sorted 0.50)
      (percentile sorted 0.90) mx bound
  in
  let ratio w opt = float_of_int w /. float_of_int opt in
  report "Det_dsf" 2.0
    (sweep
       (fun (inst, opt, _) -> ratio (Dsf_core.Det_dsf.run inst).Dsf_core.Det_dsf.weight opt));
  report "Det_sublinear eps=1/2" 2.5
    (sweep
       (fun (inst, opt, _) ->
         ratio
           (Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den:2 inst)
             .Dsf_core.Det_sublinear.weight opt));
  report "Rand_dsf (3 reps)"
    (2.0 *. log (float_of_int 30))
    (sweep
       (fun (inst, opt, seed) ->
         ratio
           (Dsf_core.Rand_dsf.run ~rng:(Rng.create seed) inst).Dsf_core.Rand_dsf.weight
           opt));
  report "Khan et al. [14] (3 reps)"
    (2.0 *. log (float_of_int 30))
    (sweep
       (fun (inst, opt, seed) ->
         ratio
           (Dsf_core.Khan_etal.run ~rng:(Rng.create (seed + 1)) inst)
             .Dsf_core.Khan_etal.weight opt));
  verdict "E14" !ok

(* ------------------------------------------------------------------ E15 *)

let e15 () =
  header "E15 (accounting transparency)"
    "how much of each algorithm's reported rounds is genuinely simulated vs charged to a cited bound (see DESIGN.md)";
  let r = Rng.create 5151 in
  let g = Gen.random_connected r ~n:60 ~extra_edges:60 ~max_w:10 in
  let labels = Gen.spread_labels r g ~t:12 ~k:4 in
  let inst = Instance.make_ic g labels in
  Format.printf "%-28s %10s %10s %12s@." "algorithm" "simulated" "charged"
    "% simulated";
  let ok = ref true in
  let row name ledger =
    let s = Ledger.simulated ledger and c = Ledger.charged ledger in
    if s = 0 then ok := false;
    Format.printf "%-28s %10d %10d %11.0f%%@." name s c
      (100. *. float_of_int s /. float_of_int (s + c))
  in
  row "Det_dsf" (Dsf_core.Det_dsf.run inst).Dsf_core.Det_dsf.ledger;
  row "Det_sublinear eps=1/2"
    (Dsf_core.Det_sublinear.run ~eps_num:1 ~eps_den:2 inst)
      .Dsf_core.Det_sublinear.ledger;
  row "Rand_dsf (1 rep)"
    (Dsf_core.Rand_dsf.run ~repetitions:1 ~rng:(Rng.create 2) inst)
      .Dsf_core.Rand_dsf.ledger;
  row "Khan et al. (1 rep)"
    (Dsf_core.Khan_etal.run ~repetitions:1 ~rng:(Rng.create 3) inst)
      .Dsf_core.Khan_etal.ledger;
  row "GKP MST" (Dsf_baseline.Mst_gkp.run g).Dsf_baseline.Mst_gkp.ledger;
  let terms = Instance.terminals inst in
  row "CF/Mehlhorn Steiner tree"
    (Dsf_baseline.Steiner_tree_distributed.run g ~terminals:terms)
      .Dsf_baseline.Steiner_tree_distributed.ledger;
  verdict "E15" !ok

(* Runs every experiment in order and returns how many verdicts
   FAILed. *)
let run_all ~jobs () =
  List.fold_left
    (fun failed experiment -> if experiment () then failed else failed + 1)
    0
    [ e1 ~jobs; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e14 ~jobs; e15; f1 ]
