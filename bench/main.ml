(* Benchmark / experiment harness.

   dune exec bench/main.exe                -- run everything
   dune exec bench/main.exe -- tables      -- per-theorem experiments (E1-E11,
                                              E14, E15, F1; exits nonzero if
                                              any verdict FAILs)
   dune exec bench/main.exe -- ablations   -- design-choice ablations (A1-A6,
                                              E12, E13; exits nonzero if any
                                              verdict FAILs)
   dune exec bench/main.exe -- micro       -- bechamel microbenchmarks
                                              (writes BENCH_sim.json)
   dune exec bench/main.exe -- smoke       -- fast simulator-only benchmarks
                                              for CI (writes BENCH_sim.json)
   dune exec bench/main.exe -- chaos       -- hardened-vs-lossless differential
                                              smoke under a fixed fault plan
                                              (exits nonzero on divergence)
   dune exec bench/main.exe -- chaos-soak  -- crash-recovery soak: plan class
                                              x protocol x engine matrix at
                                              n=1024, recovered final states
                                              must equal lossless (exits
                                              nonzero on divergence; prints a
                                              post-mortem on a round-limit
                                              abort)
   dune exec bench/main.exe -- flatcheck   -- flat-vs-reference engine differential
                                              smoke (exits nonzero on divergence)
   dune exec bench/main.exe -- compare OLD.json NEW.json
                                           -- diff two BENCH_sim.json files
                                              (rounds/s, words/round, phase
                                              profile) with a tolerance-based
                                              regression verdict (exits
                                              nonzero on regression); the
                                              metrics that got better by
                                              more than the tolerance are
                                              listed under their own heading

   Options (after the mode):
     --jobs N, -j N   domains for the pooled sweeps and trial fan-outs
                      (default: recommended domain count, capped); results
                      are identical for every N — only wall time changes
     --out PATH       where micro/smoke write their JSON
                      (default BENCH_sim.json; CI uses a scratch path)
     --trace PATH     additionally write a telemetry trace of the profiled
                      workloads (E1 + A6) to PATH ('-' = stdout)
     --trace-format F trace rendering: console | jsonl | chrome
                      (default: inferred from the --trace extension —
                      .json = chrome, .jsonl = jsonl, else console)
   compare options:
     --tol PCT        tolerance (percent) for guarded metrics (default 25)
     --strict-timing  fail on timing regressions too (default: advisory) *)

let usage () =
  prerr_endline
    "usage: main.exe [all|tables|ablations|micro|smoke|chaos|chaos-soak|flatcheck] \
     [--jobs N] [--out PATH] [--trace PATH] \
     [--trace-format console|jsonl|chrome]\n\
    \       main.exe compare OLD.json NEW.json [--tol PCT] [--strict-timing]";
  exit 2

(* The compare mode has positional operands, which the generic option loop
   below rejects — dispatch it before entering that loop. *)
let compare_main () =
  let argc = Array.length Sys.argv in
  let old_path = ref None and new_path = ref None in
  let tol = ref 25.0 and strict = ref false in
  let i = ref 2 in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--tol" when !i + 1 < argc ->
        incr i;
        tol := (try float_of_string Sys.argv.(!i) with Failure _ -> usage ())
    | "--strict-timing" -> strict := true
    | s when String.length s > 0 && s.[0] = '-' -> usage ()
    | s when !old_path = None -> old_path := Some s
    | s when !new_path = None -> new_path := Some s
    | _ -> usage ());
    incr i
  done;
  match !old_path, !new_path with
  | Some o, Some n -> exit (Compare.run ~old_path:o ~new_path:n ~tol:!tol ~strict:!strict)
  | _ -> usage ()

let () =
  let argc = Array.length Sys.argv in
  let has_mode = argc > 1 && String.length Sys.argv.(1) > 0 && Sys.argv.(1).[0] <> '-' in
  let what = if has_mode then Sys.argv.(1) else "all" in
  if what = "compare" then compare_main ();
  let jobs = ref (Dsf_util.Pool.default_jobs ()) in
  let out = ref "BENCH_sim.json" in
  let trace = ref None in
  let trace_format = ref None in
  let i = ref (if has_mode then 2 else 1) in
  while !i < argc do
    (match Sys.argv.(!i) with
    | ("--jobs" | "-j") when !i + 1 < argc ->
        incr i;
        jobs := (try int_of_string Sys.argv.(!i) with Failure _ -> usage ())
    | "--out" when !i + 1 < argc ->
        incr i;
        out := Sys.argv.(!i)
    | "--trace" when !i + 1 < argc ->
        incr i;
        trace := Some Sys.argv.(!i)
    | "--trace-format" when !i + 1 < argc ->
        incr i;
        trace_format := Some Sys.argv.(!i)
    | _ -> usage ());
    incr i
  done;
  let jobs = max 1 !jobs and out = !out in
  let trace_sink =
    match !trace with
    | None -> None
    | Some path -> begin
        match
          Dsf_congest.Telemetry.sink_format_for ?format:!trace_format path
        with
        | Ok format -> Some (format, path)
        | Error msg -> prerr_endline msg; usage ()
      end
  in
  Format.printf
    "Distributed Steiner Forest — experiment harness (Lenzen & Patt-Shamir, PODC 2014)@.";
  Format.printf "jobs=%d (recommended domains: %d)@." jobs
    (Domain.recommended_domain_count ());
  let failed_verdicts =
    (if what = "all" || what = "tables" then Tables.run_all ~jobs () else 0)
    + if what = "all" || what = "ablations" then Ablations.run_all ~jobs ()
      else 0
  in
  if what = "all" || what = "micro" then Micro.run ~jobs ~out ();
  if what = "smoke" then Micro.smoke ~jobs ~out ();
  if what = "all" || what = "chaos" then Chaos.run ();
  if what = "chaos-soak" then Chaos.soak ();
  if what = "flatcheck" then Micro.flat_check ();
  (match trace_sink with
  | Some (format, path) -> Micro.write_trace ~format path
  | None -> ());
  Format.printf "@.done.@.";
  if failed_verdicts > 0 then begin
    Format.eprintf "%d experiment verdict(s) FAILed@." failed_verdicts;
    exit 1
  end
