#!/usr/bin/env python3
"""End-to-end `dsf_cli solve` benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload det_path --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --selfcheck

The benchmark builds `bin/dsf_cli.exe` and its helper
`perfbench/dsf_perfbench.exe` from source, generates the workload's
instances from `--seed`, and drives the real CLI binary one invocation at a
time (a closed loop with one client).  Each invocation's phases are timed
from outside, by the moment each flushed stdout line arrives.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it also
runs the same call sequence in-process with telemetry attached
(`dsf_perfbench.exe trace`) and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
WORK_DIR = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(BUILD_DIR, "default", "bin", "dsf_cli.exe")
TOOL = os.path.join(BUILD_DIR, "default", "perfbench", "dsf_perfbench.exe")
PROBE = os.path.join(BUILD_DIR, "default", "perfbench", "dsf_calibrate.exe")

# The whole run, builds excluded, stays under this many seconds.
RUN_BUDGET_S = 170.0

# The host-speed probe (perfbench/dsf_calibrate.ml) runs right before every
# untraced CLI invocation.  On a shared host, neighbours slow the solver and
# the probe alike for stretches of seconds, so the ratio of an invocation's
# time to the probe run just before it is far steadier than either time.
# Each end-to-end time is the median of that ratio over passes, times
# PROBE_NOMINAL_S (the probe's fastest time on an idle 2-vCPU x86-64 VM),
# summed over invocations.  The probe links only the standard library, so no
# change to the solver moves it.
PROBE_NOMINAL_S = 0.012
PROBE_CHECKSUM = "checksum 15974538"

DET_FLAT_1 = ["--algo", "det", "--flat", "--jobs", "1"]
DET_FLAT_2 = ["--algo", "det", "--flat", "--jobs", "2"]

# Each workload: one instance family and the CLI configurations run on every
# instance.  `count` instances make one pass; passes repeat while the
# --seconds budget allows.  The end-to-end times are probe-relative (above);
# every per-layer time is the per-invocation minimum over passes, summed over
# the pass, because neighbours on a shared host only ever add time.  With
# `recorder`, a traced run also repeats every invocation with `--record`,
# for the recorder.* metrics.
WORKLOADS = {
    "det_path": dict(
        topology="path", nodes=256, terminals=32, components=16, count=48,
        configs=[("det", DET_FLAT_1)], recorder=True,
    ),
    "det_random": dict(
        topology="random", nodes=512, terminals=128, components=16, count=6,
        configs=[("det", DET_FLAT_2)],
    ),
    "classic_mix": dict(
        topology="random", nodes=256, terminals=16, components=4, count=10,
        configs=[
            ("rand", ["--algo", "rand", "--jobs", "2"]),
            ("sublinear", ["--algo", "sublinear", "--jobs", "1"]),
        ],
    ),
}

# Self-check sizes: every workload shrunk to n=64.
TINY = {
    "det_path": dict(nodes=64, terminals=8, components=4, count=2),
    "det_random": dict(nodes=64, terminals=16, components=4, count=2),
    "classic_mix": dict(nodes=64, terminals=8, components=2, count=2),
}

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "wall_s": "s",
    "peak_rss_mb": "MB", "rounds": "rounds", "weight": "weight",
    "certified_ratio": "ratio", "ok_ops": "share",
}

PRIMITIVES = [
    "bfs", "region_bf", "neighbor_exchange", "filtered_upcast", "upcast",
    "upcast_dedup", "broadcast", "aggregate", "bellman_ford", "token_flood",
    "gossip_extremum",
]

PER_LAYER = dict(
    [
        ("io.parse_s", "s"), ("paths.parameters_s", "s"), ("graph.csr_s", "s"),
        ("sim.rounds", "rounds"), ("sim.stepped", "count"),
        ("sim.delivered", "messages"), ("sim.wake_hits", "count"),
        ("sim.ns_per_round", "ns"), ("sim.delivered_per_step", "ratio"),
    ]
    + [
        (f"{p}.{m}", u)
        for p in PRIMITIVES
        for m, u in (("wall_s", "s"), ("rounds", "rounds"),
                     ("messages", "messages"), ("ns_per_msg", "ns"))
    ]
    + [
        ("det_dsf.local_s", "s"), ("det_sublinear.local_s", "s"),
        ("rand_dsf.local_s", "s"), ("virtual_tree.wall_s", "s"),
        ("certify.check_s", "s"), ("det_dsf.dual_rerun_s", "s"),
        ("pool.cpu_util", "ratio"),
        ("gc.minor_mwords", "Mwords"), ("gc.words_per_msg", "words"),
        ("gc.major_collections", "count"), ("gc.top_heap_mb", "MB"),
        ("recorder.events", "count"), ("recorder.log_bytes", "bytes"),
        ("recorder.write_s", "s"), ("recorder.overhead_pct", "%"),
        ("recorder.peak_rss_mb", "MB"),
        ("telemetry.overhead_pct", "%"), ("host.probe_s", "s"),
    ]
)

LOCAL_SPAN = {"det": "det_dsf", "sublinear": "det_sublinear", "rand": "rand_dsf"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        raise BenchError(f"no dune-project at {ROOT}: not a source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT,
         "--build-dir", BUILD_DIR,
         "bin/dsf_cli.exe", "perfbench/dsf_perfbench.exe",
         "perfbench/dsf_calibrate.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout[-4000:])


# ------------------------------------------------------------ generation


def generate(spec, seed, out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    proc = subprocess.run(
        [TOOL, "gen", "--topology", spec["topology"],
         "--nodes", str(spec["nodes"]), "--terminals", str(spec["terminals"]),
         "--components", str(spec["components"]), "--count", str(spec["count"]),
         "--seed", str(seed), "--out", out_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError("instance generation failed:\n" + proc.stderr[-2000:])
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# ------------------------------------------------------------ invocation


def parse_gc(text):
    gc = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and key in ("minor_words", "major_collections", "top_heap_words"):
            gc[key] = float(value)
    return gc


def invoke(args, timeout, stderr_path, exe=CLI):
    """Spawn the CLI, timestamp each stdout line, return the observation.

    Runs under OCAMLRUNPARAM=v=0x400 so the runtime prints its GC totals to
    stderr at exit; peak RSS and CPU time come from wait4's rusage."""
    env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
    lines = []
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE,
                                stderr=err, env=env)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            for raw in iter(proc.stdout.readline, b""):
                lines.append((time.perf_counter() - t0,
                              raw.decode("utf-8", "replace").rstrip("\n")))
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
    with open(stderr_path, "r", errors="replace") as f:
        err_text = f.read()
    return dict(lines=lines, wall=wall, code=proc.returncode,
                timed_out=timed_out.is_set(),
                rss_mb=usage.ru_maxrss / 1024.0,
                cpu=usage.ru_utime + usage.ru_stime,
                gc=parse_gc(err_text), stderr=err_text)


def find_line(obs, prefix):
    for t, text in obs["lines"]:
        if text.startswith(prefix):
            return t, text
    return None, None


def field(text, key):
    """Value of `key=` in a CLI line such as `instance: n=64 m=70 ...`."""
    for tok in text.replace("(", " ").replace(")", " ").replace(",", " ").split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    return None


def analyse(obs, inst, label, jobs, record):
    """Check one invocation and extract its measurements.  Returns
    (result dict, list of failure reasons)."""
    bad = []
    if obs["timed_out"]:
        bad.append("hard timeout")
    if obs["code"] != 0:
        bad.append(f"exit code {obs['code']}: {obs['stderr'][-300:]}")
    t_inst, l_inst = find_line(obs, "instance:")
    t_weight, l_weight = find_line(obs, "solution weight:")
    t_cert, l_cert = find_line(obs, "certified:")
    t_rounds, l_rounds = find_line(obs, "rounds:")
    if find_line(obs, "CERTIFICATION FAILED")[1]:
        bad.append("CERTIFICATION FAILED")
    if None in (l_inst, l_weight, l_cert, l_rounds):
        bad.append("missing output line")
        return None, bad
    for key in ("n", "m", "t", "k"):
        if field(l_inst, key) != str(inst[key]):
            bad.append(f"instance line {key} mismatch: {l_inst}")
    weight = int(l_weight.split()[2])
    if "(feasible: true)" not in l_weight:
        bad.append("feasible: false")
    rounds = int(l_rounds.split()[1])
    # The moat dual is a lower bound on OPT, so no feasible forest is lighter.
    if weight < inst["dual"] - 1e-6:
        bad.append(f"weight {weight} below the dual lower bound {inst['dual']}")
    ratio = weight / inst["dual"] if inst["dual"] > 0 else 1.0
    if label == "det":
        dual = field(l_cert, "dual")
        if dual is None or abs(float(dual) - inst["dual"]) > 0.01:
            bad.append(f"det dual {dual} differs from the moat dual {inst['dual']}")
        if ratio > 2.0 + 1e-9:
            bad.append(f"certified ratio {ratio:.3f} above 2 (Lemma C.4)")
    res = dict(
        setup=t_inst, solve=t_weight - t_inst, certify=t_cert - t_weight,
        wall=obs["wall"], rss=obs["rss_mb"], cpu=obs["cpu"], jobs=jobs,
        weight=weight, rounds=rounds, dual=inst["dual"], gc=obs["gc"],
    )
    if record:
        t_log, l_log = find_line(obs, "wrote flightlog to")
        if l_log is None:
            bad.append("no flightlog written")
        else:
            res["events"] = int(l_log.rsplit("(", 1)[1].split()[0])
            res["write"] = t_log - t_rounds
    return res, bad


# --------------------------------------------------------------- running


class Runner:
    def __init__(self, name, seed, seconds, tiny=False):
        self.spec = dict(WORKLOADS[name], **(TINY[name] if tiny else {}))
        self.seed, self.seconds = seed, seconds
        self.dir = os.path.join(WORK_DIR, name)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def remaining(self):
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def fail(self, what, reasons):
        """Count one failed operation when there are reasons to fail it."""
        if reasons:
            self.failed += 1
            self.failures.extend(f"{what}: {r}" for r in reasons)

    def probe(self):
        """One timed run of the host-speed probe: its wall seconds, or None."""
        self.attempted += 1
        obs = invoke([], max(1.0, self.remaining()),
                     os.path.join(self.dir, "stderr.txt"), exe=PROBE)
        text = " ".join(t for _, t in obs["lines"])
        if obs["code"] != 0 or obs["timed_out"] or text != PROBE_CHECKSUM:
            self.fail("probe", [f"exit code {obs['code']}, output {text!r}"])
            return None
        self.probes.append(obs["wall"])
        return obs["wall"]

    def jobs(self, args):
        return int(args[args.index("--jobs") + 1])

    def cli_args(self, inst, args, record_path=None):
        a = ["solve"] + args + ["--file", inst["file"], "--seed", str(self.seed)]
        if record_path:
            a += ["--record", record_path]
        return a

    def run_cli(self, i, inst, label, args, record):
        """One untraced invocation; returns its checked measurements."""
        log_path = os.path.join(self.dir, f"flight_{i}.log") if record else None
        self.attempted += 1
        obs = invoke(self.cli_args(inst, args, log_path),
                     max(1.0, self.remaining()),
                     os.path.join(self.dir, "stderr.txt"))
        res, bad = analyse(obs, inst, label, self.jobs(args), record)
        if res is not None and record and log_path and os.path.exists(log_path):
            res["log_bytes"] = os.path.getsize(log_path)
            os.remove(log_path)
        self.fail(f"{label} instance {i}", bad)
        return res if not bad else None

    def run_traced(self, i, inst, label, args):
        self.attempted += 1
        cmd = [TOOL, "trace"] + args + ["--file", inst["file"], "--seed", str(self.seed)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.fail(f"traced {label} instance {i}", ["hard timeout"])
            return None
        if proc.returncode != 0:
            self.fail(f"traced {label} instance {i}",
                      [f"exit code {proc.returncode}: {proc.stderr[-300:]}"])
            return None
        # rand's pooled trials run their spans concurrently, so local time
        # divides their summed span wall by jobs; det's flat jobs split one
        # run and its spans do not overlap.
        return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                    overlap=self.jobs(args) if label == "rand" else 1)

    def invocations(self):
        """(key, instance index, instance, label, args) in pass order."""
        return [((i, label), i, inst, label, args)
                for i, inst in enumerate(self.instances)
                for label, args in self.spec["configs"]]

    def passes(self, one_pass):
        """Repeat one_pass while the --seconds budget allows another."""
        t0 = time.perf_counter()
        n = 0
        while True:
            one_pass()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / n > self.seconds or self.failures:
                return

    def run(self, trace):
        os.makedirs(self.dir, exist_ok=True)
        t_gen = time.perf_counter()
        self.instances = generate(self.spec, self.seed, os.path.join(self.dir, "inst"))
        self.gen_s = time.perf_counter() - t_gen
        self.start = time.perf_counter()
        self.cli = {}  # key -> list of untraced results over passes
        self.recorded = {}  # key -> list of untraced results with --record
        self.traced = {}  # key -> list of traced results
        self.probes = []  # wall seconds of each host-speed probe run

        def untraced_pass():
            for key, i, inst, label, args in self.invocations():
                probe = self.probe()
                res = self.run_cli(i, inst, label, args, False)
                if res is not None and probe is not None:
                    self.cli.setdefault(key, []).append(dict(res, probe=probe))

        def traced_pass():
            for key, i, inst, label, args in self.invocations():
                if self.spec.get("recorder"):
                    res = self.run_cli(i, inst, label, args, True)
                    if res is not None:
                        self.recorded.setdefault(key, []).append(res)
                tr = self.run_traced(i, inst, label, args)
                if tr is not None:
                    self.traced.setdefault(key, []).append(tr)

        if trace:
            self.passes(lambda: (untraced_pass(), traced_pass()))
        else:
            self.passes(untraced_pass)
        self.check_consistency()
        metrics = self.per_layer() if trace else self.end_to_end()
        return metrics

    def check_consistency(self):
        """Exact results repeat across passes, and the traced in-process run
        and the recorded run agree with the untraced CLI."""
        for key, runs in self.cli.items():
            exact = {(r["weight"], r["rounds"]) for r in runs}
            exact |= {(r["weight"], r["rounds"]) for r in self.recorded.get(key, [])}
            for tr in self.traced.get(key, []):
                exact.add((tr["weight"], tr["rounds"]))
                if not (tr["feasible"] and tr["certified"]):
                    self.fail(f"traced {key}", ["infeasible or not certified"])
            if len(exact) != 1:
                self.fail(f"{key}", [f"weight/rounds differ between runs: {sorted(exact)}"])
        expected = len(self.instances) * len(self.spec["configs"])
        if len(self.cli) != expected and not self.failures:
            self.fail("run", ["missing invocations"])

    # ------------------------------------------------------------ metrics

    def best(self, table, field_name):
        """Sum over invocations of the per-invocation minimum over passes."""
        return sum(min(r[field_name] for r in runs) for runs in table.values())

    def relative(self, field_name):
        """Sum over invocations of the median over passes of the time
        relative to the probe run just before it, in nominal seconds."""
        return PROBE_NOMINAL_S * sum(
            statistics.median(r[field_name] / r["probe"] for r in runs)
            for runs in self.cli.values())

    def end_to_end(self):
        cli = self.cli
        if not cli:
            return {}
        first = [runs[0] for runs in cli.values()]
        return dict(
            setup_s=self.relative("setup"),
            solve_s=self.relative("solve"),
            wall_s=self.relative("wall"),
            peak_rss_mb=max(r["rss"] for runs in cli.values() for r in runs),
            rounds=sum(r["rounds"] for r in first),
            weight=sum(r["weight"] for r in first),
            certified_ratio=sum(r["weight"] for r in first) / sum(r["dual"] for r in first),
            ok_ops=(self.attempted - self.failed) / max(1, self.attempted),
        )

    def per_layer(self):
        cli, tr = self.cli, self.traced
        if not cli or not tr:
            return {}
        m = {}
        m["io.parse_s"] = self.best(tr, "parse_s")
        m["paths.parameters_s"] = self.best(tr, "parameters_s")
        m["graph.csr_s"] = self.best(tr, "csr_s")
        first = {k: v[0] for k, v in tr.items()}
        total = lambda f: sum(r[f] for r in first.values())
        m["sim.rounds"] = total("sim_rounds")
        m["sim.stepped"] = total("sim_stepped")
        m["sim.delivered"] = total("sim_delivered")
        m["sim.wake_hits"] = total("sim_wake_hits")
        covered = self.best(tr, "covered_s")
        m["sim.ns_per_round"] = covered * 1e9 / max(1, m["sim.rounds"])
        m["sim.delivered_per_step"] = m["sim.delivered"] / max(1, m["sim.stepped"])
        for p in PRIMITIVES:
            wall = self.best(tr, f"{p}.wall_s")
            msgs = total(f"{p}.messages")
            m[f"{p}.wall_s"] = wall
            m[f"{p}.rounds"] = total(f"{p}.rounds")
            m[f"{p}.messages"] = msgs
            m[f"{p}.ns_per_msg"] = wall * 1e9 / msgs if msgs else 0.0
        for span in LOCAL_SPAN.values():
            m[f"{span}.local_s"] = 0.0
        for (i, label), runs in tr.items():
            local = min(max(0.0, r["solve_s"] - r["covered_s"] / r["overlap"]) for r in runs)
            m[f"{LOCAL_SPAN[label]}.local_s"] += local
        m["virtual_tree.wall_s"] = self.best(tr, "virtual_tree_s")
        m["certify.check_s"] = self.best(tr, "certify_s")
        m["det_dsf.dual_rerun_s"] = self.best(tr, "dual_rerun_s")
        runs = [r for rs in cli.values() for r in rs]
        m["pool.cpu_util"] = (sum(r["cpu"] for r in runs)
                              / sum(r["wall"] * r["jobs"] for r in runs))
        minor = sum(rs[0]["gc"].get("minor_words", 0.0) for rs in cli.values())
        # The det certify phase re-runs the solve: its messages count twice.
        messages = sum(r["messages"] * (2 if label == "det" else 1)
                       for (_, label), r in first.items())
        m["gc.minor_mwords"] = minor / 1e6
        m["gc.words_per_msg"] = minor / messages if messages else 0.0
        m["gc.major_collections"] = sum(rs[0]["gc"].get("major_collections", 0.0)
                                        for rs in cli.values())
        m["gc.top_heap_mb"] = max(r["gc"].get("top_heap_words", 0.0) for r in runs) * 8 / 2**20
        rec = self.recorded
        if rec:
            m["recorder.events"] = sum(rs[0]["events"] for rs in rec.values())
            m["recorder.log_bytes"] = sum(rs[0]["log_bytes"] for rs in rec.values())
            m["recorder.write_s"] = self.best(rec, "write")
            m["recorder.overhead_pct"] = 100.0 * (self.best(rec, "solve")
                                                  / self.best(cli, "solve") - 1.0)
            m["recorder.peak_rss_mb"] = max(r["rss"] for rs in rec.values() for r in rs)
        else:
            for k in ("events", "log_bytes", "write_s", "overhead_pct", "peak_rss_mb"):
                m[f"recorder.{k}"] = 0.0
        traced_wall = sum(self.best(tr, f) for f in (
            "parse_s", "parameters_s", "csr_s", "solve_s", "dual_rerun_s", "certify_s"))
        untraced_wall = sum(self.best(cli, f) for f in ("setup", "solve", "certify"))
        m["telemetry.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        if self.probes:
            m["host.probe_s"] = min(self.probes)
        return m


def result_line(runner, metrics, trace):
    units = PER_LAYER if trace else END_TO_END
    missing = [k for k in units if k not in metrics]
    correct = not runner.failures and not missing
    return dict(
        correct=correct,
        attempted=max(1, runner.attempted),
        failed=runner.failed,
        metrics={k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    )


def run_workload(name, seed, seconds, trace, tiny=False):
    runner = Runner(name, seed, seconds, tiny=tiny)
    metrics = runner.run(trace)
    for f in runner.failures[:20]:
        log(f"FAILED {f}")
    print(f"generation_s: {runner.gen_s:.3f} (instances: {len(runner.instances)}, "
          f"not a program metric)")
    if runner.probes:
        print(f"host probe: median {statistics.median(runner.probes):.4f} s, "
              f"fastest {min(runner.probes):.4f} s of {len(runner.probes)} runs")
    return runner, result_line(runner, metrics, trace)


# ------------------------------------------------------------- self-check


def selfcheck():
    """Every workload at n=64, both modes: every named metric appears
    with its unit and BENCHMARK.json lists exactly these names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    declared = {(m["name"], m["unit"]) for m in bench["end_to_end"]}
    if declared != set(END_TO_END.items()):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    declared = {(m["name"], m["unit"]) for m in bench["per_layer"]}
    if declared != set(PER_LAYER.items()):
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            runner, out = run_workload(name, seed=1, seconds=0, trace=trace, tiny=True)
            units = PER_LAYER if trace else END_TO_END
            for k, u in units.items():
                got = out["metrics"].get(k)
                if got is None or got["unit"] != u:
                    problems.append(f"{name} trace={trace}: metric {k} missing or wrong unit")
            if not out["correct"] or out["failed"]:
                problems.append(f"{name} trace={trace}: not correct")
            for runs in runner.cli.values():
                for r in runs:
                    if r["setup"] + r["solve"] + r["certify"] > r["wall"]:
                        problems.append(f"{name}: setup+solve+certify exceeds wall")
            log(f"selfcheck {name} trace={trace}: "
                f"{'ok' if out['correct'] else 'FAILED'}")
    for p in problems:
        log(f"selfcheck: {p}")
    print(json.dumps({"selfcheck": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run all workloads at n=64 and check the metric set")
    opts = ap.parse_args()
    if not opts.selfcheck and opts.workload is None:
        ap.error("--workload is required")
    try:
        build()
        if opts.selfcheck:
            return selfcheck()
        _, out = run_workload(opts.workload, opts.seed, opts.seconds, opts.trace == 1)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
