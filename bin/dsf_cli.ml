(* Command-line front end: generate an instance, solve it with any of the
   implemented algorithms, and print the solution plus the round ledger.

   Examples:
     dune exec bin/dsf_cli.exe -- solve --algo det --topology random \
       --nodes 50 --terminals 12 --components 4 --seed 7
     dune exec bin/dsf_cli.exe -- params --topology grid --nodes 49
     dune exec bin/dsf_cli.exe -- params --file test/fixtures/det_small.dsf
     dune exec bin/dsf_cli.exe -- gadget --kind ic --universe 12 *)

module Graph = Dsf_graph.Graph
module Gen = Dsf_graph.Gen
module Instance = Dsf_graph.Instance
module Ledger = Dsf_congest.Ledger
module Solver = Dsf_core.Solver

(* Bad input is a usage error, not a crash: every subcommand that reads an
   instance file reports problems as PATH:LINE: message (PATH: message when
   no single line is at fault), and a flag value the generator or solver
   cannot use as --FLAG: message, on stderr with exit 2. *)
let input_error where ?(line = 0) msg =
  if line > 0 then Format.eprintf "%s:%d: %s@." where line msg
  else Format.eprintf "%s: %s@." where msg;
  exit 2

let flag_error flag fmt = Format.kasprintf (fun msg -> input_error flag msg) fmt

(* A flag whose value names one of [choices]. *)
let check_choice flag ~what choices v =
  if not (List.mem v choices) then
    flag_error flag "unknown %s %S (expected %s)" what v
      (String.concat " | " choices)

let algos = [ "det"; "sublinear"; "rand"; "khan"; "moat" ]

let check_jobs jobs =
  if jobs < 1 then flag_error "--jobs" "must be at least 1, got %d" jobs

(* The certification verdict solve and verify share: print the report
   (after [prefix]) or the rejection (after [reject]), and say whether the
   solution passed.  A caller that gets [false] exits 1. *)
let certified ?dual ~prefix ~reject inst ~solution =
  match Dsf_core.Certify.check ?dual inst ~solution with
  | Ok report ->
      Format.printf "%s%a@." prefix Dsf_core.Certify.pp report;
      report.Dsf_core.Certify.feasible
  | Error msg ->
      Format.printf "%s: %s@." reject msg;
      false

let make_graph topology rng n max_w =
  let min_n =
    match topology with
    | "random" | "geometric" -> 2
    | "lollipop" -> 6 (* a clique of n / 3 >= 2 nodes *)
    | _ -> min_int
  in
  if n < min_n then
    flag_error "--nodes" "the %s topology needs at least %d nodes, got %d"
      topology min_n n;
  if max_w < 1 then flag_error "--max-weight" "must be at least 1, got %d" max_w;
  if max_w > Graph.max_total_weight then
    flag_error "--max-weight"
      "must be at most %d (the total weight bound), got %d"
      Graph.max_total_weight max_w;
  let g =
    match topology with
    | "random" -> Gen.random_connected rng ~n ~extra_edges:n ~max_w
    | "geometric" -> Gen.random_geometric rng ~n ~radius:0.2 ~max_w
    | "grid" ->
        let side = max 2 (int_of_float (sqrt (float_of_int n))) in
        Gen.reweight rng ~max_w (Gen.grid ~rows:side ~cols:side)
    | "cycle" -> Gen.reweight rng ~max_w (Gen.cycle (max 3 n))
    | "path" -> Gen.reweight rng ~max_w (Gen.path (max 2 n))
    | "lollipop" -> Gen.reweight rng ~max_w (Gen.lollipop ~clique:(n / 3) ~tail:(n - (n / 3)))
    | "clustered" ->
        let cluster_size = max 4 (n / 4) in
        Gen.clustered rng ~clusters:4 ~cluster_size ~intra_extra:(cluster_size / 2)
          ~bridges:2 ~intra_w:(max 2 (max_w / 8)) ~bridge_w:max_w
    | other -> flag_error "--topology" "unknown topology %S" other
  in
  let weights =
    List.map (fun (e : Graph.edge) -> e.w) (Array.to_list (Graph.edges g))
  in
  if Graph.over_weight_bound weights <> None then
    flag_error "--max-weight"
      "%d gives the generated graph a total edge weight above the bound %d"
      max_w Graph.max_total_weight;
  g

let graph_of = function
  | Dsf_graph.Io.Ic inst -> inst.Instance.graph
  | Dsf_graph.Io.Cr cr -> cr.Instance.cr_graph
  | Dsf_graph.Io.Plain g -> g

(* Parse an instance file and reject disconnected networks up front: every
   algorithm (and the D/WD/s sweep) assumes one connected CONGEST network. *)
let read_instance_file path =
  let parsed =
    try Dsf_graph.Io.parse_file path with
    | Dsf_graph.Io.Parse_error (line, msg) -> input_error path ~line msg
    | Sys_error msg ->
        Format.eprintf "%s@." msg;
        exit 2
  in
  let g = graph_of parsed in
  let comp = Graph.connected_components g in
  (match Array.find_index (fun c -> c <> comp.(0)) comp with
  | Some v ->
      input_error path
        (Printf.sprintf
           "graph is disconnected: node %d is unreachable from node 0" v)
  | None -> ());
  parsed

(* The input to solve: a file's labels or requests as parsed, or a
   generated DSF-IC instance. *)
let load_or_generate file topology rng n t k max_w =
  match file with
  | Some path -> begin
      match read_instance_file path with
      | Dsf_graph.Io.Ic inst -> Solver.Ic inst
      | Dsf_graph.Io.Cr cr -> Solver.Cr cr
      | Dsf_graph.Io.Plain _ ->
          input_error path "no label or request lines: nothing to solve"
    end
  | None ->
      if k < 1 then flag_error "--components" "must be at least 1, got %d" k;
      if t < 2 * k then
        flag_error "--terminals"
          "each of the %d components needs 2 terminals, so at least %d; got %d"
          k (2 * k) t;
      let g = make_graph topology rng n max_w in
      if t > Graph.n g then
        flag_error "--terminals" "%d exceeds the %d nodes of the generated graph"
          t (Graph.n g);
      let labels = Gen.spread_labels rng g ~t ~k in
      Solver.Ic (Instance.make_ic g labels)

(* The DSF-IC instance an input denotes, for the instance line, the
   certificate and --dot.  For requests it is the centralized Lemma 2.3
   labelling: it has the distributed transform's partition, so it gives
   the same t, k and certificate. *)
let labelled = function
  | Solver.Ic inst -> inst
  | Solver.Cr cr -> Instance.ic_of_cr cr

(* The instance line solve and compare print first: sizes only, no
   sweep (`dsf_cli params` prints the exact D, WD and s). *)
let print_instance inst =
  let g = inst.Instance.graph in
  Format.printf "instance: n=%d m=%d t=%d k=%d@." (Graph.n g) (Graph.m g)
    (Instance.terminal_count inst)
    (Instance.component_count inst)

(* --trace plumbing: parse the format up front (so a typo fails before the
   solve, not after), collect into a fresh per-invocation telemetry, write
   the chosen rendering at the end.  With no explicit --trace-format the
   format is inferred from the file extension
   ([Telemetry.sink_format_for]). *)
let trace_sink ?recorder trace trace_format =
  match trace with
  | None -> None
  | Some path -> begin
      match Dsf_congest.Telemetry.sink_format_for ?format:trace_format path with
      | Ok format -> Some (Dsf_congest.Telemetry.create ?recorder (), format, path)
      | Error msg -> flag_error "--trace-format" "%s" msg
    end

let telemetry_of_sink = function
  | None -> None
  | Some (tel, _, _) -> Some tel

let write_trace = function
  | None -> ()
  | Some (tel, format, path) ->
      Dsf_congest.Telemetry.write_file tel ~format path;
      if path <> "-" then Format.printf "wrote trace to %s@." path

let solve_cmd algo topology n t k max_w seed eps_den verbose file dot_out jobs
    (_flat : bool) chaos_seed record trace trace_format =
  check_choice "--algo" ~what:"algorithm" algos algo;
  check_jobs jobs;
  if chaos_seed <> None && algo <> "det" then
    flag_error "--chaos" "only supported with --algo det, got --algo %s" algo;
  let max_eps_den = Dsf_core.Det_sublinear.max_eps_den in
  if algo = "sublinear" && (eps_den < 1 || eps_den > max_eps_den) then
    flag_error "--eps-den" "must be in 1..%d (eps = 1/eps-den), got %d"
      max_eps_den eps_den;
  let recorder =
    Option.map (fun _ -> Dsf_congest.Recorder.create ()) record
  in
  let sink = trace_sink ?recorder trace trace_format in
  let telemetry =
    match telemetry_of_sink sink, recorder with
    | (Some _ as t), _ -> t
    | None, Some r ->
        (* --record without --trace: the recorder still rides on a
           telemetry (that is how the engines and Fault find it); the
           telemetry itself is discarded at the end. *)
        Some (Dsf_congest.Telemetry.create ~recorder:r ())
    | None, None -> None
  in
  let rng = Dsf_util.Rng.create seed in
  let input = load_or_generate file topology rng n t k max_w in
  let inst = labelled input in
  let algorithm =
    match algo with
    | "det" -> Solver.Det
    | "sublinear" -> Solver.Det_sublinear { eps_num = 1; eps_den }
    | "rand" ->
        Solver.Rand
          { repetitions = 3; rng = Dsf_util.Rng.split rng 1 }
    | "khan" ->
        Solver.Khan_baseline
          { repetitions = 3; rng = Dsf_util.Rng.split rng 1 }
    | "moat" -> Solver.Centralized_moat
    | _ -> assert false (* check_choice on entry *)
  in
  let g = inst.Instance.graph in
  print_instance inst;
  (* Instance parameters into the flightlog metadata: `inspect
     --critical-path` renders the paper bound sqrt(min(s*t, n))*log2(n) + D
     from exactly these keys.  The exact (D, WD, s) is swept for the log
     only (memoized, so a solver that reads it finds it there). *)
  (match recorder with
  | Some r ->
      let d, wd, s =
        Dsf_congest.Telemetry.span_opt telemetry "paths.parameters" (fun () ->
            Dsf_graph.Paths.parameters ~jobs g)
      in
      List.iter
        (fun (key, v) -> if v >= 0 then Dsf_congest.Recorder.meta_add r key v)
        [
          "n", Graph.n g;
          "m", Graph.m g;
          "D", d;
          "WD", wd;
          "s", s;
          "t", Instance.terminal_count inst;
          "k", Instance.component_count inst;
          "seed", seed;
        ]
  | None -> ());
  (match chaos_seed with
  | Some cs -> Format.printf "chaos: seed=%d (crash-recovery hardened)@." cs
  | None -> ());
  let chaos =
    Option.map (fun cs -> Dsf_congest.Fault.chaos_plan ~seed:cs g) chaos_seed
  in
  let report = Solver.solve ~jobs ?telemetry ?chaos algorithm input in
  let solution = report.Solver.solution in
  Format.printf "solution weight: %d (feasible: %b)@."
    report.Solver.weight report.Solver.feasible;
  (* Independent re-check of the result, and of the dual certificate when
     the algorithm provides one. *)
  let ok =
    certified ?dual:report.Solver.dual_lower_bound
      ~prefix:"certified: " ~reject:"CERTIFICATION FAILED" inst ~solution
  in
  (match report.Solver.ledger with
  | Some l ->
      Format.printf "rounds: %d (simulated %d, charged %d)@." (Ledger.total l)
        (Ledger.simulated l) (Ledger.charged l);
      if verbose then Format.printf "%a@." Ledger.pp l
  | None -> Format.printf "(centralized reference: no round accounting)@.");
  if verbose then begin
    Format.printf "edges:@.";
    List.iter
      (fun (e : Graph.edge) -> Format.printf "  %d-%d (w=%d)@." e.u e.v e.w)
      (Graph.edge_list_of_set g solution)
  end;
  (match dot_out with
  | Some path ->
      Dsf_graph.Dot.to_file path
        (fun ppf () -> Dsf_graph.Dot.instance ~solution ppf inst)
        ();
      Format.printf "wrote %s@." path
  | None -> ());
  write_trace sink;
  (match record, recorder with
  | Some path, Some r ->
      Dsf_congest.Recorder.write_file r path;
      Format.printf "wrote flightlog to %s (%d events)@." path
        (Dsf_congest.Recorder.event_count r)
  | _ -> ());
  if not ok then exit 1

let compare_cmd topology n t k max_w seed file jobs trace trace_format =
  check_jobs jobs;
  let sink = trace_sink trace trace_format in
  let telemetry = telemetry_of_sink sink in
  let rng = Dsf_util.Rng.create seed in
  let input = load_or_generate file topology rng n t k max_w in
  print_instance (labelled input);
  Format.printf "%-34s %8s %10s %10s %10s@." "algorithm" "weight" "sim" "charged"
    "feasible";
  List.iter
    (fun (r : Solver.report) ->
      let sim, charged =
        Option.fold r.Solver.ledger ~none:(0, 0) ~some:(fun l ->
            Ledger.simulated l, Ledger.charged l)
      in
      Format.printf "%-34s %8d %10d %10d %10b@." r.Solver.algorithm
        r.Solver.weight sim charged r.Solver.feasible)
    (Solver.compare_all ~jobs ?telemetry input);
  write_trace sink

let verify_cmd inst_file sol_file dual =
  match read_instance_file inst_file with
  | Dsf_graph.Io.Plain _ -> input_error inst_file "no label lines: nothing to verify"
  | Dsf_graph.Io.Cr _ ->
      input_error inst_file "verify expects a DSF-IC (label) file, not requests"
  | Dsf_graph.Io.Ic inst -> begin
      let g = inst.Instance.graph in
      let text =
        let ic =
          try open_in sol_file
          with Sys_error msg ->
            Format.eprintf "%s@." msg;
            exit 2
        in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Dsf_graph.Io.parse_solution g text with
      | Error (line, msg) -> input_error sol_file ~line msg
      | Ok solution ->
          if not (certified ?dual ~prefix:"" ~reject:"REJECTED" inst ~solution)
          then exit 1
    end

let params_cmd topology n max_w seed file =
  let g =
    match file with
    | Some path -> graph_of (read_instance_file path)
    | None -> make_graph topology (Dsf_util.Rng.create seed) n max_w
  in
  let d, wd, s = Dsf_graph.Paths.parameters g in
  Format.printf
    "n=%d m=%d max_degree=%d D=%d WD=%d s=%d total_weight=%d@." (Graph.n g)
    (Graph.m g) (Graph.max_degree g) d wd s (Graph.total_weight g)

let gadget_cmd kind universe seed intersect =
  check_choice "--kind" ~what:"gadget kind" [ "ic"; "cr" ] kind;
  let rng = Dsf_util.Rng.create seed in
  let a, b =
    Dsf_lower_bound.Gadgets.random_sets rng ~universe ~density:0.5
      ~force_intersect:intersect
  in
  match kind with
  | "ic" ->
      let gad = Dsf_lower_bound.Gadgets.ic_gadget ~universe ~a ~b in
      let (res, bits) =
        Dsf_lower_bound.Gadgets.cut_bits gad.Dsf_lower_bound.Gadgets.ic_side
          (fun ~telemetry ->
            Dsf_core.Det_dsf.run ~telemetry gad.Dsf_lower_bound.Gadgets.ic)
      in
      Format.printf
        "IC gadget (Fig 1 right): universe=%d disjoint=%b bridge_used=%b cut_bits=%d@."
        universe
        (Dsf_lower_bound.Gadgets.disjoint a b)
        res.Dsf_core.Det_dsf.solution.(gad.Dsf_lower_bound.Gadgets.bridge_edge)
        bits
  | "cr" ->
      let gad = Dsf_lower_bound.Gadgets.cr_gadget ~universe ~rho:2 ~a ~b in
      let (res, bits) =
        Dsf_lower_bound.Gadgets.cut_bits gad.Dsf_lower_bound.Gadgets.cr_side
          (fun ~telemetry ->
            let inst =
              Dsf_core.Transform.cr_to_ic
                ~env:
                  { Dsf_congest.Sim.default_env with
                    telemetry = Some telemetry }
                gad.Dsf_lower_bound.Gadgets.cr
            in
            Dsf_core.Det_dsf.run ~telemetry inst)
      in
      let heavy =
        List.exists
          (fun id -> res.Dsf_core.Det_dsf.solution.(id))
          gad.Dsf_lower_bound.Gadgets.heavy_edges
      in
      Format.printf
        "CR gadget (Fig 1 left): universe=%d disjoint=%b heavy_used=%b cut_bits=%d@."
        universe
        (Dsf_lower_bound.Gadgets.disjoint a b)
        heavy bits
  | _ -> assert false (* check_choice on entry *)

(* inspect: offline queries over a dsf-flightlog/1 file written by
   `solve --record`.  With no query flag, print the summary header. *)

let parse_why_spec s =
  let bad () = flag_error "--why" "expects NODE or NODE:ROUND, got %S" s in
  let int_of s = match int_of_string_opt s with Some v -> v | None -> bad () in
  match String.index_opt s ':' with
  | None -> int_of s, None
  | Some i ->
      ( int_of (String.sub s 0 i),
        Some (int_of (String.sub s (i + 1) (String.length s - i - 1))) )

let inspect_cmd log_path why diff critical hot =
  let why = Option.map parse_why_spec why in
  match Dsf_congest.Recorder.read_file log_path with
  | Error msg ->
      Format.eprintf "inspect: %s@." msg;
      exit 2
  | Ok log ->
      let a = Dsf_congest.Recorder.analyze log in
      let queried = ref false in
      (match why with
      | Some (node, round) ->
          queried := true;
          Format.printf "%a" (Dsf_congest.Recorder.pp_why ~node ?round) a
      | None -> ());
      (match diff with
      | Some (r1, r2) ->
          queried := true;
          Format.printf "%a" (Dsf_congest.Recorder.pp_diff ~r1 ~r2) a
      | None -> ());
      if critical then begin
        queried := true;
        Format.printf "%a" Dsf_congest.Recorder.pp_critical_path a
      end;
      (match hot with
      | Some limit ->
          queried := true;
          Format.printf "%a" (Dsf_congest.Recorder.pp_hot_edges ~limit) a
      | None -> ());
      if not !queried then Format.printf "%a" Dsf_congest.Recorder.pp_summary a

open Cmdliner

let topology_arg =
  Arg.(value & opt string "random" & info [ "topology" ] ~doc:"random | geometric | grid | cycle | path | lollipop | clustered")

let nodes_arg = Arg.(value & opt int 50 & info [ "nodes"; "n" ] ~doc:"node count")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed")
let maxw_arg = Arg.(value & opt int 16 & info [ "max-weight" ] ~doc:"max edge weight")

let t_arg = Arg.(value & opt int 10 & info [ "terminals"; "t" ] ~doc:"terminal count")
let k_arg = Arg.(value & opt int 3 & info [ "components"; "k" ] ~doc:"component count")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~doc:"read the instance from a file (Io format) instead of generating")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:"write a telemetry trace (span tree + engine metrics) to this file; '-' = stdout")

let trace_format_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-format" ]
        ~doc:
          "trace rendering: console | jsonl | chrome (Perfetto-loadable \
           trace_event JSON).  Default: inferred from the --trace file \
           extension (.json = chrome, .jsonl = jsonl, else console)")

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"LOG"
        ~doc:
          "record a flight log (dsf-flightlog/1: per-round message sends \
           with fault fates, mail-consuming steps, crash windows, telemetry \
           span boundaries) of the solve to this file; query it with \
           `dsf_cli inspect'")

let jobs_arg =
  Arg.(
    value
    & opt int (Dsf_util.Pool.default_jobs ())
    & info [ "jobs"; "j" ]
        ~doc:
          "domains for the instance's exact (D, WD, s) sweep, run only \
           for the algorithms that read it (sublinear, rand, khan) and for \
           --record's log metadata, and for the trial fan-out of the \
           randomized algorithm (in solve and compare); simulated runs \
           each step on one domain; at least 1; default = recommended \
           domain count, capped; results are identical for any value")

let flat_arg =
  Arg.(
    value & flag
    & info [ "flat" ]
        ~doc:
          "deprecated no-op, accepted for compatibility: every simulated \
           subroutine already runs on the flat-core engine")

let chaos_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:
          "inject a seeded maskable chaos plan (message drops, duplicates, \
           finite link outages, crash-restart with checkpointed recovery) \
           into every simulated subroutine of the det algorithm; the \
           solution is bit-identical to the fault-free run")

let solve_term =
  let algo = Arg.(value & opt string "det" & info [ "algo" ] ~doc:(String.concat " | " algos)) in
  let eps_den = Arg.(value & opt int 2 & info [ "eps-den" ] ~doc:"eps = 1/eps-den for sublinear") in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"print ledger and edges") in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~doc:"write the instance + solution as Graphviz DOT to this file")
  in
  Term.(
    const solve_cmd $ algo $ topology_arg $ nodes_arg $ t_arg $ k_arg $ maxw_arg
    $ seed_arg $ eps_den $ verbose $ file_arg $ dot_out $ jobs_arg $ flat_arg
    $ chaos_arg $ record_arg $ trace_arg $ trace_format_arg)

let compare_term =
  Term.(
    const compare_cmd $ topology_arg $ nodes_arg $ t_arg $ k_arg $ maxw_arg
    $ seed_arg $ file_arg $ jobs_arg $ trace_arg $ trace_format_arg)

let params_term =
  Term.(const params_cmd $ topology_arg $ nodes_arg $ maxw_arg $ seed_arg $ file_arg)

let verify_term =
  let inst_file =
    Arg.(required & opt (some string) None & info [ "file" ] ~doc:"instance file (Io format)")
  in
  let sol_file =
    Arg.(required & opt (some string) None & info [ "solution" ] ~doc:"solution file (one 'u v' per line)")
  in
  let dual =
    Arg.(value & opt (some float) None & info [ "dual" ] ~doc:"claimed dual lower bound to check")
  in
  Term.(const verify_cmd $ inst_file $ sol_file $ dual)

let gadget_term =
  let kind = Arg.(value & opt string "ic" & info [ "kind" ] ~doc:"ic | cr") in
  let universe = Arg.(value & opt int 12 & info [ "universe" ] ~doc:"SD universe size") in
  let intersect = Arg.(value & flag & info [ "intersect" ] ~doc:"plant one common element") in
  Term.(const gadget_cmd $ kind $ universe $ seed_arg $ intersect)

let inspect_term =
  let log_path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LOG" ~doc:"flightlog file written by solve --record")
  in
  let why =
    Arg.(
      value
      & opt (some string) None
      & info [ "why" ] ~docv:"NODE[:ROUND]"
          ~doc:
            "causal backtrace of a node's state as of a global round \
             (default: end of log): its last mail-consuming step, then the \
             message chain that produced it, back to an origin")
  in
  let diff =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "diff" ] ~docv:"R1:R2"
          ~doc:"traffic/state delta between two global rounds")
  in
  let critical =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "longest causal message chain, whole-run and per telemetry \
             span, next to the paper bound sqrt(min(s*t, n))*log2(n) + D \
             for the recorded instance")
  in
  let hot =
    Arg.(
      value
      & opt ~vopt:(Some 10) (some int) None
      & info [ "hot-edges" ] ~docv:"N"
          ~doc:
            "top N directed edges by causal load (total bits, message \
             count, deepest chain across the edge)")
  in
  Term.(const inspect_cmd $ log_path $ why $ diff $ critical $ hot)

let () =
  let solve = Cmd.v (Cmd.info "solve" ~doc:"solve a generated or loaded DSF instance") solve_term in
  let compare = Cmd.v (Cmd.info "compare" ~doc:"run all algorithms on one instance") compare_term in
  let params =
    Cmd.v
      (Cmd.info "params"
         ~doc:"print graph parameters D, WD, s of a generated graph or a --file")
      params_term
  in
  let gadget = Cmd.v (Cmd.info "gadget" ~doc:"run a Figure-1 lower-bound gadget") gadget_term in
  let verify = Cmd.v (Cmd.info "verify" ~doc:"re-check a solution file against an instance") verify_term in
  let inspect =
    Cmd.v
      (Cmd.info "inspect"
         ~doc:"query a flightlog recorded with solve --record")
      inspect_term
  in
  let main =
    Cmd.group
      (Cmd.info "dsf_cli" ~doc:"Distributed Steiner Forest (Lenzen & Patt-Shamir, PODC 2014)")
      [ solve; compare; params; gadget; verify; inspect ]
  in
  exit (Cmd.eval main)
