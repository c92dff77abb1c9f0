#!/usr/bin/env sh
# Per-PR check: build, full test suite (including the simulator
# differential suite), the chaos smoke (hardened-vs-lossless differential
# under a fixed fault plan), and the fast simulator benchmark smoke path
# so the bench harness and JSON emission are exercised on every change.
# A flight-recorder smoke records a flat det_dsf solve and replays every
# inspect query against the log, a rand log must be the same at --jobs 1
# and --jobs 2, every experiment verdict of `tables` and `ablations`
# must PASS, and the fresh smoke bench is diffed
# against the committed BENCH_sim.json with `bench compare` (exact
# metrics gate, timing advisory).
#
# The smoke bench runs twice — --jobs 1 and --jobs 2 — and the two JSONs
# are diffed with the measured-time fields stripped: the domain pool may
# change wall time only, never a measured quantity (rounds, names,
# parallel_scaling checks, the fault_overhead table).  A diff here means
# the trial engine leaked nondeterminism; see the domain-safety contract
# in lib/congest/sim.mli.
#
# Every bench/smoke invocation runs under a hard wall-clock timeout: a
# hardened run that retransmits forever (or a pool region whose helper
# domains never finish) must fail CI loudly instead of hanging it.
set -eu
cd "$(dirname "$0")/.."

# coreutils timeout when available; plain exec otherwise (dev machines
# without it still get the functional checks).
if command -v timeout >/dev/null 2>&1; then
  with_timeout() { secs="$1"; shift; timeout "$secs" "$@"; }
else
  with_timeout() { shift; "$@"; }
fi

with_timeout 900 dune build

# Static analysis: dsf-lint's repo invariants (no global mutable state in
# lib/, the Sim.use_reference_engine shim only in the differential suite,
# no nondeterminism sources, CONGEST message discipline, no catch-all
# handlers).  Fails on any finding not in lint.baseline (which ships
# empty and must stay empty).
with_timeout 300 dune build @lint

# Typed static analysis: the Typedtree rules over the libraries' .cmt
# artifacts — domain-race (every flat fp_step provably mutates only
# node-local state), congest-width (every Pack layout and declared
# fp_msg_bits fits the 62-bit CONGEST word), env-dropped (no simulated
# run drops the Sim.env its caller has in scope) and poly-compare (no
# polymorphic compare at a type ocamlopt cannot inline in lib/congest,
# lib/embed or lib/core).  Same empty baseline.
with_timeout 300 dune build @lint-typed

with_timeout 900 dune runtest

scratch=_build/ci
mkdir -p "$scratch"

# Chaos smoke: every stock protocol hardened under a fixed drop plan must
# reproduce its lossless final states; main.exe exits nonzero on
# divergence, the timeout catches a retransmit livelock.
with_timeout 300 dune exec bench/main.exe -- chaos

# Experiment verdicts: every paper experiment (E1-E11, E14, E15, F1) and
# every ablation (A1-A6, E12, E13) prints a PASS/FAIL verdict on its
# claimed shape, and main.exe exits nonzero if any FAILs.
for mode in tables ablations; do
  if ! with_timeout 300 dune exec bench/main.exe -- "$mode" \
      > "$scratch/$mode.out"; then
    grep -E -- "--> .*: FAIL" "$scratch/$mode.out" >&2 || true
    echo "ci: an experiment verdict FAILed in bench/main.exe -- $mode" >&2
    exit 1
  fi
done
echo "ci: experiment verdicts all PASS (tables, ablations)"

# Chaos soak: the crash-recovery matrix (plan class x protocol)
# at n=1024 — every leg runs hardened with checkpointed recovery and must
# land on the lossless final states.  A round-limit abort prints the
# structured post-mortem before the nonzero exit; the wall-clock timeout
# catches anything that wedges below the round limit.
with_timeout 600 dune exec bench/main.exe -- chaos-soak

# End-to-end chaos differential: a full det_dsf solve under a seeded
# maskable chaos plan (drops + duplicates + finite link outages +
# crash-restart with recovery) must produce the same solution and
# certificate as the fault-free solve, at --jobs 1 and --jobs 2.  Only
# the solution/certificate lines are compared — round counts legitimately
# differ (the synchronizer pays for the faults).
chaos_extract() { grep -E '^(solution weight|certified)' "$1"; }
with_timeout 300 dune exec bin/dsf_cli.exe -- solve --algo det \
  --topology random --nodes 96 --terminals 12 --components 4 --seed 7 \
  > "$scratch/solve_ff.out"
with_timeout 600 dune exec bin/dsf_cli.exe -- solve --algo det \
  --topology random --nodes 96 --terminals 12 --components 4 --seed 7 \
  --chaos 5 --jobs 1 > "$scratch/solve_chaos_j1.out"
with_timeout 600 dune exec bin/dsf_cli.exe -- solve --algo det \
  --topology random --nodes 96 --terminals 12 --components 4 --seed 7 \
  --chaos 5 --jobs 2 > "$scratch/solve_chaos_j2.out"
chaos_extract "$scratch/solve_ff.out" > "$scratch/solve_ff.key"
for leg in solve_chaos_j1 solve_chaos_j2; do
  chaos_extract "$scratch/$leg.out" > "$scratch/$leg.key"
  if ! diff -u "$scratch/solve_ff.key" "$scratch/$leg.key"; then
    echo "ci: det_dsf $leg diverged from the fault-free solve" >&2
    exit 1
  fi
done
echo "ci: det_dsf chaos differential ok (jobs 1 + jobs 2, n=96)"

# Byte-identity smoke: the full stdout of a det solve on a checked-in
# instance must match the committed expected output exactly, fault-free at
# --jobs 1 and hardened at --chaos 5 --jobs 2; so must a sublinear, rand,
# khan and moat solve of the same instance, and a compare of all
# algorithms on it.  On the same graph with connection requests, a det
# solve and a compare must print the Lemma 2.3 transform's rounds.  A
# rand and a khan solve of a random n=1024 instance pin the LE-list
# next-hop ties that depend on arrival order, which det_small is too
# small to show.  A change that is meant to alter this output must
# regenerate the .out files and say why.
#
# identity_leg FIXTURE NAME ARGS...: `dsf_cli ARGS --file
# test/fixtures/FIXTURE.dsf` prints exactly test/fixtures/FIXTURE.NAME.out.
identity_leg() {
  fixture="$1"; name="$2"; shift 2
  with_timeout 300 dune exec bin/dsf_cli.exe -- "$@" \
    --file "test/fixtures/$fixture.dsf" > "$scratch/$fixture.$name.out"
  if ! diff -u "test/fixtures/$fixture.$name.out" "$scratch/$fixture.$name.out"; then
    echo "ci: dsf_cli $* stdout differs from test/fixtures/$fixture.$name.out" >&2
    exit 1
  fi
}
identity_leg det_small jobs1 solve --algo det --verbose --jobs 1
identity_leg det_small chaos5_jobs2 solve --algo det --verbose --chaos 5 --jobs 2
identity_leg det_small sublinear solve --algo sublinear --verbose
identity_leg det_small rand solve --algo rand --verbose --jobs 2
identity_leg det_small khan solve --algo khan --verbose
identity_leg det_small moat solve --algo moat --verbose
identity_leg det_small compare compare
identity_leg det_small_cr det solve --algo det --verbose
identity_leg det_small_cr compare compare
identity_leg rand_1k rand solve --algo rand --verbose
identity_leg rand_1k khan solve --algo khan --verbose
echo "ci: solve and compare stdout byte-identical (det_small: det jobs 1 + chaos 5 jobs 2, sublinear, rand, khan, moat, compare; det_small_cr: det, compare; rand_1k: rand, khan)"

# Jobs-invariance: rand's trial fan-out is the only part of a solve that
# --jobs affects (no algorithm sweeps the exact (D, WD, s)), so a rand
# solve's stdout must not change between --jobs 1 and --jobs 2.
for j in 1 2; do
  with_timeout 300 dune exec bin/dsf_cli.exe -- solve --algo rand \
    --topology random -n 600 -t 16 -k 4 --jobs "$j" > "$scratch/jobs_j$j.out"
done
if ! diff -u "$scratch/jobs_j1.out" "$scratch/jobs_j2.out"; then
  echo "ci: rand solve stdout differs between --jobs 1 and --jobs 2 (n=600)" >&2
  exit 1
fi
echo "ci: rand solve stdout jobs-invariant (n=600)"

# No algorithm sweeps the exact (D, WD, s): a traced solve opens no
# paths.parameters span, whichever algorithm runs.  The exact triple
# stays one command away in `params --file`.
for algo in det sublinear rand khan moat; do
  with_timeout 120 dune exec bin/dsf_cli.exe -- solve --algo "$algo" \
    --file test/fixtures/det_small.dsf --trace - --trace-format console \
    > "$scratch/sweep_$algo.trace"
  if grep -q "paths.parameters" "$scratch/sweep_$algo.trace"; then
    echo "ci: a traced $algo solve has a paths.parameters span" >&2
    exit 1
  fi
done
with_timeout 60 dune exec bin/dsf_cli.exe -- params \
  --file test/fixtures/det_small.dsf > "$scratch/params.out"
grep -q " D=5 WD=40 s=8 " "$scratch/params.out" || {
  echo "ci: params --file det_small.dsf did not print D=5 WD=40 s=8:" >&2
  cat "$scratch/params.out" >&2; exit 1; }
echo "ci: no algorithm sweeps (det, sublinear, rand, khan, moat traced); params --file ok"

# Malformed-input smoke: a bad integer, a self-loop, a disconnected graph,
# a negative n followed by a second n line, a node labelled twice, a total
# edge weight over the 2^50 input bound, an n over the 2^24 node bound
# (rejected before anything is allocated), an edge line with two fields,
# and a verify whose solution file names a non-edge must each fail with
# exit 2,
# nothing on stdout, and a PATH:LINE: (or PATH:) location on stderr, never
# as an uncaught exception.
expect_input_error() {
  prefix="$1"; shift
  status=0
  with_timeout 60 dune exec bin/dsf_cli.exe -- "$@" \
    > "$scratch/bad.out" 2> "$scratch/bad.err" || status=$?
  if [ "$status" -ne 2 ] || [ -s "$scratch/bad.out" ] \
     || ! grep -qF "$prefix" "$scratch/bad.err" \
     || grep -q "uncaught exception" "$scratch/bad.err"; then
    echo "ci: dsf_cli $*: want exit 2, empty stdout and '$prefix', got exit $status:" >&2
    cat "$scratch/bad.out" "$scratch/bad.err" >&2
    exit 1
  fi
}
printf 'n 3\nedge 0 1 x\nedge 1 2 1\nlabel 0 0\nlabel 2 0\n' \
  > "$scratch/bad_int.dsf"
printf 'n 3\nedge 0 1 2\nedge 1 1 2\nlabel 0 0\nlabel 2 0\n' \
  > "$scratch/bad_selfloop.dsf"
printf 'n 4\nedge 0 1 2\nedge 2 3 1\nlabel 0 0\nlabel 3 0\n' \
  > "$scratch/bad_disconnected.dsf"
printf 'n -5\nn 3\nedge 0 1 1\nedge 1 2 1\nlabel 0 0\nlabel 2 0\n' \
  > "$scratch/bad_negative_n.dsf"
printf 'n 3\nedge 0 1 1\nedge 1 2 1\nlabel 0 0\nlabel 0 1\nlabel 2 1\n' \
  > "$scratch/bad_relabel.dsf"
# 2^50 - 12, then 5 and 8: the third edge crosses the bound by one.
printf 'n 4\nedge 0 1 1125899906842612\nedge 1 2 5\nedge 2 3 8\nlabel 0 0\nlabel 3 0\n' \
  > "$scratch/bad_weight.dsf"
printf 'n 99999999999\nedge 0 1 1\nlabel 0 0\nlabel 1 0\n' \
  > "$scratch/bad_huge_n.dsf"
printf 'n 3\nedge 0 1\nedge 1 2 1\nlabel 0 0\nlabel 2 0\n' \
  > "$scratch/bad_arity.dsf"
for bad in bad_int:2: bad_selfloop:3: bad_disconnected: bad_negative_n:1: \
    bad_relabel:5: bad_weight:4: bad_huge_n:1: bad_arity:2:; do
  file="$scratch/${bad%%:*}.dsf"
  expect_input_error "$file:${bad#*:}" solve --file "$file"
done
expect_input_error "$scratch/bad_disconnected.dsf:" params \
  --file "$scratch/bad_disconnected.dsf"
printf 'n 3\nedge 0 1 1\nedge 1 2 1\nlabel 0 0\nlabel 2 0\n' \
  > "$scratch/ok.dsf"
printf '0 1\n9 9\n' > "$scratch/bad_solution.sol"
expect_input_error "$scratch/bad_solution.sol:2:" verify \
  --file "$scratch/ok.dsf" --solution "$scratch/bad_solution.sol"
# A flight log whose int count (2^55) exceeds the bytes left: 27 bytes
# of magic, no meta, no names, the forged count and one byte.
printf 'dsf-flightlog/1\n\000\000\200\200\200\200\200\200\200\100\000' \
  > "$scratch/bad_count.flightlog"
expect_input_error "$scratch/bad_count.flightlog: corrupt flightlog" inspect \
  "$scratch/bad_count.flightlog"
# A directory where a file is read (verify --solution, solve --file) or
# written (--dot, --record, --trace): exit 2 with PATH: reason on stderr.
# The output cases print the solve before they write, so only the input
# cases require an empty stdout.
mkdir -p "$scratch/a_dir"
expect_input_error "$scratch/a_dir: " verify --file "$scratch/ok.dsf" \
  --solution "$scratch/a_dir"
expect_input_error "$scratch/a_dir: " solve --file "$scratch/a_dir"
expect_output_error() {
  status=0
  with_timeout 60 dune exec bin/dsf_cli.exe -- "$@" \
    > "$scratch/bad.out" 2> "$scratch/bad.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -qF "$scratch/a_dir: " "$scratch/bad.err" \
     || grep -q "uncaught exception" "$scratch/bad.err"; then
    echo "ci: dsf_cli $*: want exit 2 and '$scratch/a_dir: ', got exit $status:" >&2
    cat "$scratch/bad.err" >&2
    exit 1
  fi
}
for flag in --dot --record --trace; do
  expect_output_error solve --file "$scratch/ok.dsf" "$flag" "$scratch/a_dir"
done
expect_output_error compare --file "$scratch/ok.dsf" --trace "$scratch/a_dir"
echo "ci: malformed-input smoke ok (bad integer, self-loop, disconnected, second n, label twice, weight bound, n bound, edge arity, params --file, bad solution line, forged flightlog count, directory paths)"

# Bad generator, solver and query flags: each case (flag, then the dsf_cli
# arguments) must fail before anything is generated or solved — exit 2,
# nothing on stdout, the flag named on stderr, no uncaught exception.
while read -r flag args; do
  status=0
  # shellcheck disable=SC2086 # $args is a word list on purpose
  with_timeout 60 dune exec bin/dsf_cli.exe -- $args < /dev/null \
    > "$scratch/flag.out" 2> "$scratch/flag.err" || status=$?
  if [ "$status" -ne 2 ] || [ -s "$scratch/flag.out" ] \
     || ! grep -qF -- "$flag" "$scratch/flag.err" \
     || grep -q "uncaught exception" "$scratch/flag.err"; then
    echo "ci: dsf_cli $args: want exit 2 naming $flag, got exit $status:" >&2
    cat "$scratch/flag.out" "$scratch/flag.err" >&2
    exit 1
  fi
done <<'CASES'
--nodes solve -n 0
--nodes solve -n 1
--nodes compare -n 1
--nodes params -n 0
--max-weight solve --max-weight 0
--max-weight params --max-weight 0
--max-weight solve --max-weight 1125899906842625
--max-weight params -n 50 --max-weight 70368744177664
--components solve -k 0
--terminals solve -t 3 -k 2
--terminals compare -t 3 -k 2
--terminals solve -n 50 -t 60
--eps-den solve --algo sublinear --eps-den 0
--eps-den solve --algo sublinear --eps-den 64
--topology params --topology nosuch
--algo solve --algo bogus
--chaos solve --algo rand --chaos 3
--jobs solve --jobs 0
--jobs solve --jobs=-3
--jobs compare --jobs 0
--jobs compare --jobs=-3
--trace-format solve --trace _build/ci/flag.trace --trace-format xml
--kind gadget --kind zz
--why inspect _build/ci/flag.flightlog --why a:b
CASES
echo "ci: bad-flag smoke ok (nodes, max-weight, components, terminals, eps-den, topology, algo, chaos, jobs, trace-format, kind, why)"

# inspect on a missing log names the path exactly once.
missing="$scratch/missing.flightlog"
rm -f "$missing"
status=0
with_timeout 60 dune exec bin/dsf_cli.exe -- inspect "$missing" \
  2> "$scratch/inspect.err" || status=$?
if [ "$status" -ne 2 ] \
   || [ "$(grep -oF -- "$missing" "$scratch/inspect.err" | wc -l)" -ne 1 ]; then
  echo "ci: inspect $missing: want exit 2 naming the path once, got exit $status:" >&2
  cat "$scratch/inspect.err" >&2
  exit 1
fi
echo "ci: inspect missing-log smoke ok"

# Flat-engine smoke: stock workloads through the flat-core engine must
# reproduce run_reference's states, trees and stats exactly (the
# standalone counterpart of the qcheck differential suite).
with_timeout 300 dune exec bench/main.exe -- flatcheck

# Flight-recorder smoke: record a whole flat det_dsf solve at n=1024,
# then run every inspect query against the written log.  The recorder
# must not perturb the solve, the log must parse, and --critical-path
# must print an achieved causal depth next to the paper bound — all
# under a hard timeout so a recorder that wedges the barrier (or an
# inspector that loops on a malformed chain) fails loudly.
with_timeout 300 dune exec bin/dsf_cli.exe -- solve --algo det \
  --jobs 2 --topology path --nodes 1024 --terminals 16 --components 4 \
  --seed 5 --record "$scratch/solve.flightlog" > /dev/null
with_timeout 120 dune exec bin/dsf_cli.exe -- inspect \
  "$scratch/solve.flightlog" --critical-path > "$scratch/inspect_cp.out"
grep -q "critical path: causal depth" "$scratch/inspect_cp.out" || {
  echo "ci: inspect --critical-path printed no causal depth" >&2; exit 1; }
grep -q "paper bound" "$scratch/inspect_cp.out" || {
  echo "ci: inspect --critical-path printed no paper bound" >&2; exit 1; }
with_timeout 120 dune exec bin/dsf_cli.exe -- inspect \
  "$scratch/solve.flightlog" --why 512 > /dev/null
with_timeout 120 dune exec bin/dsf_cli.exe -- inspect \
  "$scratch/solve.flightlog" --hot-edges 5 > /dev/null
echo "ci: flight-recorder smoke ok (record + inspect, flat n=1024)"

# Chaos flight-recorder smoke: record a hardened det solve, so the log
# carries Recovery events (retransmissions, restores, checkpoint bits),
# and read it back with the summary and --critical-path.
with_timeout 300 dune exec bin/dsf_cli.exe -- solve --algo det \
  --file test/fixtures/det_small.dsf --chaos 5 \
  --record "$scratch/chaos.flightlog" > /dev/null
with_timeout 120 dune exec bin/dsf_cli.exe -- inspect \
  "$scratch/chaos.flightlog" > "$scratch/inspect_chaos.out"
grep -q "^recovery: " "$scratch/inspect_chaos.out" || {
  echo "ci: inspect of a chaos log printed no recovery line" >&2; exit 1; }
with_timeout 120 dune exec bin/dsf_cli.exe -- inspect \
  "$scratch/chaos.flightlog" --critical-path > "$scratch/inspect_chaos_cp.out"
grep -q "critical path: causal depth" "$scratch/inspect_chaos_cp.out" || {
  echo "ci: inspect --critical-path of a chaos log printed no causal depth" >&2
  exit 1; }
echo "ci: chaos flight-recorder smoke ok (det_small --chaos 5, summary + critical path)"

# A centralized solver's log has spans but no messages, so
# --critical-path must still list its span.
with_timeout 120 dune exec bin/dsf_cli.exe -- solve --algo moat \
  --file test/fixtures/det_small.dsf --record "$scratch/moat.flightlog" \
  > /dev/null
with_timeout 120 dune exec bin/dsf_cli.exe -- inspect \
  "$scratch/moat.flightlog" --critical-path > "$scratch/inspect_moat_cp.out"
grep -q "^    centralized_moat " "$scratch/inspect_moat_cp.out" || {
  echo "ci: inspect --critical-path of a moat log lost its span row" >&2
  exit 1; }
echo "ci: message-free flight-recorder smoke ok (moat, critical path spans)"

# Pooled-trial flight-recorder smoke: rand's repetitions record into
# per-trial recorders appended in trial order, so the log, and so its
# --critical-path, must not depend on --jobs and must carry the trials'
# spans.
for j in 1 2; do
  with_timeout 120 dune exec bin/dsf_cli.exe -- solve --algo rand \
    --file test/fixtures/det_small.dsf --jobs "$j" \
    --record "$scratch/rand_j$j.flightlog" > /dev/null
  with_timeout 120 dune exec bin/dsf_cli.exe -- inspect \
    "$scratch/rand_j$j.flightlog" --critical-path > "$scratch/inspect_rand_j$j.out"
done
if ! diff -u "$scratch/inspect_rand_j1.out" "$scratch/inspect_rand_j2.out"; then
  echo "ci: rand --critical-path differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
grep -q "^    trial " "$scratch/inspect_rand_j1.out" || {
  echo "ci: inspect --critical-path of a rand log has no trial span" >&2
  exit 1; }
echo "ci: pooled-trial flight-recorder smoke ok (rand det_small, jobs 1 = jobs 2, trial spans)"

# Flat end-to-end smoke: a whole det_dsf solve on the flat engine at
# n=4096 (a path — the wavefront-dominated worst case) must finish inside
# the hard timeout; the CLI certifies the forest and dual locally, so a
# wrong answer fails as loudly as a hang.
with_timeout 300 dune exec bin/dsf_cli.exe -- solve --algo det \
  --jobs 2 --topology path --nodes 4096 --terminals 16 --components 4 \
  --seed 5 > /dev/null
echo "ci: det_dsf flat e2e smoke ok (path n=4096)"

# Sanitizer-on flat e2e smoke: the same solve at n=1024 with the runtime
# node-locality sanitizer armed (DSF_SANITIZE=1 arms every run_flat in the
# process), plus a rand solve (pooled trials) and a sublinear solve at
# n=128, and a hardened det solve with crashes at n=96.  A write to
# another node's state, escaped emit closure, or arena leak aborts with
# Sim.Sanitizer_violation (nonzero exit); a livelock hits the
# hard timeout; and because every sanitizer check is read-only, each
# output must be byte-identical to its sanitizer-off run.
sanitize_leg() {
  name="$1"; shift
  with_timeout 300 dune exec bin/dsf_cli.exe -- solve "$@" \
    > "$scratch/$name.out"
  with_timeout 300 env DSF_SANITIZE=1 dune exec bin/dsf_cli.exe -- solve \
    "$@" > "$scratch/${name}_sanitized.out"
  if ! diff -u "$scratch/$name.out" "$scratch/${name}_sanitized.out"; then
    echo "ci: sanitized $name diverged from the unsanitized run" >&2
    exit 1
  fi
}
sanitize_leg solve_flat1k --algo det --jobs 2 --topology path --nodes 1024 \
  --terminals 16 --components 4 --seed 5
sanitize_leg solve_rand128 --algo rand --jobs 2 --topology random \
  --nodes 128 --terminals 16 --components 4 --seed 5
sanitize_leg solve_sublinear128 --algo sublinear --jobs 1 --topology random \
  --nodes 128 --terminals 16 --components 4 --seed 5
# A hardened det solve under crash-restart: the undelivered-inbox and
# arena-leak checks run on the active list's restart merge.
sanitize_leg solve_chaos96 --algo det --chaos 5 --jobs 1 --topology random \
  --nodes 96 --terminals 12 --components 4 --seed 7
echo "ci: sanitized flat e2e smoke ok (det path n=1024, rand + sublinear n=128, hardened det n=96, bit-identical)"

with_timeout 600 dune exec bench/main.exe -- smoke --jobs 1 --out "$scratch/bench_j1.json"
with_timeout 600 dune exec bench/main.exe -- smoke --jobs 2 --out "$scratch/bench_j2.json"

# Strip timings and the fields that legitimately differ between the runs
# (jobs, utc_date); everything left must match exactly.
strip_timing() {
  sed -E \
    -e 's/"(ns_per_run|r_square|minor_words_per_run|minor_words_per_round|rounds_per_sec|reference_ns|flat_ns|speedup_vs_j1|speedup|wall_ns|base_wall_ns|rec_wall_ns|overhead_pct|ns_per_event|wall_overhead)": [^,}]*/"\1": _/g' \
    -e 's/"(utc_date|jobs)": [^,}]*/"\1": _/g' \
    "$1"
}
strip_timing "$scratch/bench_j1.json" > "$scratch/bench_j1.flat"
strip_timing "$scratch/bench_j2.json" > "$scratch/bench_j2.flat"
if ! diff -u "$scratch/bench_j1.flat" "$scratch/bench_j2.flat"; then
  echo "ci: smoke bench output differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
echo "ci: smoke bench is jobs-invariant"

# Benchmark regression gate: diff the fresh smoke bench against the
# committed baseline with `bench compare` — deterministic metrics
# (rounds, messages, weights, fault counters) must match the committed
# values exactly, allocation figures stay within the default tolerance,
# and timing differences are advisory (machines differ).  The committed
# baseline is micro-mode, so rows the smoke mode does not measure are
# reported as notes, never failures; compare exits 1 on any regression.
with_timeout 120 dune exec bench/main.exe -- compare \
  BENCH_sim.json "$scratch/bench_j1.json"
echo "ci: bench compare regression gate ok"

# GC gate: the flat engine's steady-state allocation must not regress,
# checked per ported protocol.  Compares every fresh flat_engine
# n=256/jobs=1 minor-words figure against the same workload's row in the
# committed BENCH_sim.json; >20% (plus a small absolute slack for noise
# at these tiny values) on any workload fails the build.  Workloads with
# no committed baseline yet are reported and skipped, never silently.
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_sim.json "$scratch/bench_j1.json" <<'EOF'
import json, sys
def words(path):
    try:
        d = json.load(open(path))
    except OSError:
        return None
    out = {}
    for r in d.get("flat_engine", []):
        if r["n"] == 256 and r["jobs"] == 1:
            out[r["workload"]] = r["minor_words_per_round"]
    return out
base, fresh = words(sys.argv[1]), words(sys.argv[2])
assert fresh, "fresh smoke bench has no flat_engine n=256 jobs=1 rows"
if not base:
    print("ci: no committed flat_engine baseline; skipping GC gate")
else:
    failed = []
    for w, f in sorted(fresh.items()):
        b = base.get(w)
        if b is None:
            print("ci: flat-engine GC gate: no committed baseline for %r; skipped" % w)
        elif f > b * 1.2 + 8.0:
            failed.append("%s: %.1f minor words/round vs committed %.1f" % (w, f, b))
        else:
            print("ci: flat-engine GC gate ok: %-24s %.1f words/round (committed %.1f)"
                  % (w, f, b))
    if failed:
        raise SystemExit("ci: flat-engine GC regression:\n  " + "\n  ".join(failed))
EOF
else
  echo "ci: python3 not found; skipping flat-engine GC gate" >&2
fi

# Trace smoke: a small solve with --trace must emit Chrome trace_event JSON
# that parses and contains complete ("ph": "X") spans covering at least 4
# distinct algorithm phases (the telemetry acceptance bar).  Skipped when
# no python3 is around to parse JSON (dev machines still get the write).
with_timeout 300 dune exec bin/dsf_cli.exe -- solve --algo det --nodes 24 \
  --terminals 6 --components 2 --seed 3 \
  --trace "$scratch/trace.json" --trace-format chrome > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$scratch/trace.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
spans = [e for e in d["traceEvents"] if e.get("ph") == "X"]
assert spans, "chrome trace has no complete spans"
phases = {e["name"] for e in spans}
assert len(phases) >= 4, "expected >= 4 distinct phases, got %r" % phases
print("ci: chrome trace ok (%d spans, %d phases)" % (len(spans), len(phases)))
EOF
else
  echo "ci: python3 not found; skipping trace JSON validation" >&2
fi

# Trace-coverage smoke: one run environment reaches every simulated run,
# and the engine counts the printed rounds, so the summed engine rounds
# of a traced solve's spans must equal the "simulated N" the solve
# prints.  Every distributed solver at n=200.
for algo in det sublinear rand khan; do
  with_timeout 300 dune exec bin/dsf_cli.exe -- solve --algo "$algo" \
    --topology random --nodes 200 --terminals 20 --components 5 --seed 3 \
    --jobs 1 --trace "$scratch/cover_$algo.jsonl" --trace-format jsonl \
    > "$scratch/cover_$algo.out"
  printed=$(sed -n -E 's/.*\(simulated ([0-9]+),.*/\1/p' "$scratch/cover_$algo.out")
  traced=$(grep '"type": "span"' "$scratch/cover_$algo.jsonl" \
    | sed -E 's/.*"rounds": ([0-9]+).*/\1/' \
    | awk '{ s += $1 } END { print s + 0 }')
  if [ -z "$printed" ] || [ "$printed" != "$traced" ]; then
    echo "ci: $algo trace covers $traced rounds, solve simulated '$printed'" >&2
    exit 1
  fi
  echo "ci: $algo trace covers all $traced simulated rounds"
done
