(* Helper executable for perfbench/run.py.

   gen    writes seeded DSF-IC instances in Io format, with the generators
          `dsf_cli solve` uses (random_connected / path + reweight, then
          spread_labels), and prints one JSON line per instance carrying its
          size and the centralized moat dual (a certified lower bound on OPT
          that run.py checks every solution weight against).

   trace  repeats the `dsf_cli solve` call sequence in-process on one
          instance file, with a telemetry attached to the solve, and prints
          one JSON line: wall seconds per layer call, the CLI's result
          (weight, rounds, feasibility, certificate), the engine counters
          and per-primitive span totals.

     dsf_perfbench.exe gen --topology path --nodes 1024 --terminals 32 \
       --components 16 --count 4 --seed 7 --out DIR
     dsf_perfbench.exe trace --algo det --flat --jobs 1 --file DIR/inst_0.txt *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance
module Telemetry = Dsf_congest.Telemetry

let max_w = 16 (* the CLI's --max-weight default *)

let json_line fields =
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s\"%s\": %s" (if i = 0 then "" else ", ") k v)
    fields;
  print_string "}\n"

let jstr s = Printf.sprintf "%S" s
let jint = string_of_int
let jfloat f = Printf.sprintf "%.9g" f
let jbool = string_of_bool

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  v, Unix.gettimeofday () -. t0

(* ---------------------------------------------------------------- gen *)

let gen topology n t k count seed out =
  let master = Dsf_util.Rng.create seed in
  for i = 0 to count - 1 do
    let rng = Dsf_util.Rng.split master i in
    let g =
      match topology with
      | "random" -> Gen.random_connected rng ~n ~extra_edges:n ~max_w
      | "path" -> Gen.reweight rng ~max_w (Gen.path n)
      | other -> invalid_arg ("unknown topology: " ^ other)
    in
    let inst = Instance.make_ic g (Gen.spread_labels rng g ~t ~k) in
    let file = Filename.concat out (Printf.sprintf "inst_%d.txt" i) in
    let oc = open_out file in
    let ppf = Format.formatter_of_out_channel oc in
    Dsf_graph.Io.print_ic ppf inst;
    Format.pp_print_flush ppf ();
    close_out oc;
    let dual = Dsf_core.Frac.to_float (Dsf_core.Moat.run inst).Dsf_core.Moat.dual in
    json_line
      [
        "file", jstr file;
        "n", jint (Graph.n g);
        "m", jint (Graph.m g);
        "t", jint (Instance.terminal_count inst);
        "k", jint (Instance.component_count inst);
        "dual", jfloat dual;
      ]
  done

(* -------------------------------------------------------------- trace *)

(* Telemetry span names of the simulated primitives. *)
let primitives =
  [
    "bfs"; "region_bf"; "neighbor_exchange"; "filtered_upcast"; "upcast";
    "upcast_dedup"; "broadcast"; "aggregate"; "bellman_ford"; "token_flood";
    "gossip_extremum";
  ]

type prim = { mutable p_ns : float; mutable p_rounds : int; mutable p_msgs : int }

let rec subtree_sum f (s : Telemetry.span) =
  List.fold_left (fun acc c -> acc + subtree_sum f c) (f s) s.Telemetry.children

(* Per-primitive totals count only the outermost span of each name, so a
   primitive nested in itself is not counted twice; [covered] sums the
   outermost primitive spans of any name (the solve's time inside
   simulated primitives).  [inside] lists the enclosing primitive names. *)
let span_totals tel =
  let stats = List.map (fun p -> p, { p_ns = 0.; p_rounds = 0; p_msgs = 0 }) primitives in
  let covered = ref 0. and virtual_tree = ref 0. in
  let rec walk inside in_tree (s : Telemetry.span) =
    let name = s.Telemetry.name in
    let ns = Int64.to_float s.Telemetry.wall_ns in
    let prim = List.mem name primitives in
    if prim && not (List.mem name inside) then begin
      let p = List.assoc name stats in
      p.p_ns <- p.p_ns +. ns;
      p.p_rounds <- p.p_rounds + subtree_sum (fun s -> s.Telemetry.rounds) s;
      p.p_msgs <- p.p_msgs + subtree_sum (fun s -> s.Telemetry.messages) s
    end;
    if prim && inside = [] then covered := !covered +. ns;
    let tree = name = "virtual_tree" in
    if tree && not in_tree then virtual_tree := !virtual_tree +. ns;
    List.iter
      (walk (if prim then name :: inside else inside) (in_tree || tree))
      s.Telemetry.children
  in
  List.iter (walk [] false) (Telemetry.root_spans tel);
  stats, !covered, !virtual_tree

let hist_sum metrics name =
  match Dsf_util.Metrics.histogram metrics name with
  | Some h -> Dsf_util.Histogram.sum h
  | None -> 0

let trace algo jobs flat file seed =
  let tel = Telemetry.create () in
  let inst, parse_s =
    time (fun () ->
        match Dsf_graph.Io.parse_file file with
        | Dsf_graph.Io.Ic inst -> inst
        | _ -> invalid_arg "instance file has no label lines")
  in
  let g = inst.Instance.graph in
  let _, parameters_s = time (fun () -> Dsf_graph.Paths.parameters g) in
  let _, csr_s = time (fun () -> Graph.csr g) in
  let rng = Dsf_util.Rng.create seed in
  let flat = if flat then Some true else None in
  let (weight, solution, ledger), solve_s =
    time (fun () ->
        match algo with
        | "det" ->
            let r = Dsf_core.Det_dsf.run ~telemetry:tel ?flat ~jobs inst in
            r.Dsf_core.Det_dsf.weight, r.Dsf_core.Det_dsf.solution, r.Dsf_core.Det_dsf.ledger
        | "sublinear" ->
            (* eps = 1/2, the CLI's --eps-den default *)
            let r = Dsf_core.Det_sublinear.run ~telemetry:tel ~eps_num:1 ~eps_den:2 inst in
            ( r.Dsf_core.Det_sublinear.weight,
              r.Dsf_core.Det_sublinear.solution,
              r.Dsf_core.Det_sublinear.ledger )
        | "rand" ->
            let r =
              Dsf_core.Rand_dsf.run ~telemetry:tel ~jobs ~rng:(Dsf_util.Rng.split rng 1) inst
            in
            r.Dsf_core.Rand_dsf.weight, r.Dsf_core.Rand_dsf.solution, r.Dsf_core.Rand_dsf.ledger
        | other -> invalid_arg ("unknown algorithm: " ^ other))
  in
  let feasible = Instance.is_feasible inst solution in
  let dual, dual_rerun_s =
    time (fun () ->
        match algo with
        | "det" ->
            Some
              (Dsf_core.Frac.to_float
                 (Dsf_core.Det_dsf.run ?flat ~jobs inst).Dsf_core.Det_dsf.dual)
        | _ -> None)
  in
  let report, certify_s = time (fun () -> Dsf_core.Certify.check ?dual inst ~solution) in
  let stats, covered_ns, virtual_tree_ns = span_totals tel in
  let metrics = Telemetry.metrics tel in
  let root = Telemetry.root tel in
  json_line
    ([
       "weight", jint weight;
       "rounds", jint (Dsf_congest.Ledger.total ledger);
       "feasible", jbool feasible;
       "certified", jbool (Result.is_ok report);
       "parse_s", jfloat parse_s;
       "parameters_s", jfloat parameters_s;
       "csr_s", jfloat csr_s;
       "solve_s", jfloat solve_s;
       "dual_rerun_s", jfloat dual_rerun_s;
       "certify_s", jfloat certify_s;
       "covered_s", jfloat (covered_ns /. 1e9);
       "virtual_tree_s", jfloat (virtual_tree_ns /. 1e9);
       "messages", jint (subtree_sum (fun s -> s.Telemetry.messages) root);
       "sim_rounds", jint (Dsf_util.Metrics.counter_value metrics "sim/rounds");
       "sim_wake_hits", jint (Dsf_util.Metrics.counter_value metrics "sim/wake_hits");
       "sim_stepped", jint (hist_sum metrics "sim/stepped_per_round");
       "sim_delivered", jint (hist_sum metrics "sim/delivered_per_round");
     ]
    @ List.concat_map
        (fun (p, s) ->
          [
            p ^ ".wall_s", jfloat (s.p_ns /. 1e9);
            p ^ ".rounds", jint s.p_rounds;
            p ^ ".messages", jint s.p_msgs;
          ])
        stats)

(* ---------------------------------------------------------------- main *)

let () =
  let topology = ref "random" and n = ref 64 and t = ref 8 and k = ref 2 in
  let count = ref 1 and seed = ref 1 and out = ref "." in
  let algo = ref "det" and jobs = ref 1 and flat = ref false in
  let file = ref "" in
  let specs =
    [
      "--topology", Arg.Set_string topology, "random | path";
      "--nodes", Arg.Set_int n, "node count";
      "--terminals", Arg.Set_int t, "terminal count";
      "--components", Arg.Set_int k, "component count";
      "--count", Arg.Set_int count, "instances to generate";
      "--seed", Arg.Set_int seed, "RNG seed";
      "--out", Arg.Set_string out, "output directory for gen";
      "--algo", Arg.Set_string algo, "det | rand | sublinear";
      "--jobs", Arg.Set_int jobs, "domains";
      "--flat", Arg.Set flat, "flat engine (det)";
      "--file", Arg.Set_string file, "instance file (Io format)";
    ]
  in
  let cmd = ref None in
  Arg.parse specs (fun a -> cmd := Some a) "dsf_perfbench.exe (gen | trace) [options]";
  match !cmd with
  | Some "gen" -> gen !topology !n !t !k !count !seed !out
  | Some "trace" -> trace !algo !jobs !flat !file !seed
  | _ ->
      prerr_endline "usage: dsf_perfbench.exe (gen | trace) [options]";
      exit 2
