#!/usr/bin/env python3
"""Benchmark runner for the distributed planarity tester.

    python3 perfbench/run.py --workload grid-compiled --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  It builds `planartest` and the
layer probe (perfbench/layers.ml) with dune, generates the workload's
graph, then repeats `planartest test` child processes (`--domains 1`,
`--no-ground-truth`, `--stats-json`) while one more fits in --seconds.

--trace 0 reports the end-to-end metrics: host wall of a run, set-up
time, peak RSS, simulated messages per host second, the share of runs
that passed, and the simulated round and message totals.  --trace 1
alternates untraced children with traced runs of the layer probe and
reports the per-layer metrics plus a "where did the wall go" table,
whose total is the traced child's wall timed from outside.

The workload's graph is fixed (perfbench/workloads.json).  --seed picks
the tester seeds: even runs use the workload's pinned seed, odd run i
uses seed * 1000 + i, so a timing is a median over several Stage II
samplings.  Every run's stats JSON is checked: exit code, verdict class,
and the simulated totals recorded in perfbench/workloads.json (all of
them at the pinned seed); runs that share a tester seed must report
identical totals.  A run that crashes, times out or misses a check
counts as failed.  Human-readable tables go to stdout; each workload
ends with one JSON line with the keys correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PLANARTEST = ROOT / "_build" / "default" / "bin" / "planartest.exe"
LAYERS = ROOT / "_build" / "default" / "perfbench" / "layers.exe"

SETUP_PER_RUN = 3  # set-ups timed before each tester run
BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 170  # a benchmark run (after the build) must end by then
TOTALS = ("rounds", "nominal_rounds", "messages", "total_bits",
          "fast_forwarded_rounds")


class SetupError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    for rel in ("dune-project", "bin/planartest.ml", "perfbench/layers.ml"):
        if not (ROOT / rel).is_file():
            raise SetupError(f"{rel} not found: run from a full source checkout")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # --cache=disabled: dune's shared cache would write outside the checkout.
    cmd += ["build", "--root", str(ROOT), "-j", "2", "--cache=disabled",
            "./bin/planartest.exe", "./perfbench/layers.exe"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        raise SetupError(f"dune build failed with exit code {r.returncode}")


def timed_child(cmd, stdout, timeout):
    """Run cmd; return (exit code or None on timeout, wall s, peak RSS MB)."""
    with open(os.devnull, "wb") as devnull:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=devnull)
        killed = threading.Event()

        def kill():
            killed.set()
            p.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    code = None if killed.is_set() else p.returncode
    return code, wall, ru.ru_maxrss / 1024.0


def setup(w, path, expected=None):
    """Generate the workload graph into path once; return (wall s, bytes)."""
    cmd = [str(PLANARTEST), "gen", "--family", w["family"], "--n", str(w["n"]),
           "--param", str(w["param"]), "--seed", str(w["graph_seed"]),
           "--log-level", "warn"]
    with open(path, "wb") as out:
        code, wall, _ = timed_child(cmd, out, CHILD_TIMEOUT_S)
    if code != 0:
        raise SetupError(f"planartest gen exited with {code}")
    data = path.read_bytes()
    if expected is not None and data != expected:
        raise SetupError("planartest gen is not deterministic")
    return wall, data


class Checker:
    """The output-correctness gate shared by every run of one benchmark run."""

    def __init__(self, w):
        self.verdict = w["verdict"]
        exp = w.get("expect", {})
        self.every_seed = exp.get("every_seed", {})
        self.pinned_seed = exp.get("pinned_seed")
        self.at_pinned_seed = exp.get("at_pinned_seed", {})
        self.seen = {}  # tester seed -> totals of its first run

    def check(self, seed, doc):
        """Return None if doc passes, else the reason it fails."""
        if doc.get("verdict") != self.verdict:
            return f"verdict {doc.get('verdict')!r}, expected {self.verdict!r}"
        totals = {k: doc.get(k) for k in TOTALS}
        expected = dict(self.every_seed)
        if seed == self.pinned_seed:
            expected.update(self.at_pinned_seed)
        for k, v in expected.items():
            if totals[k] != v:
                return f"seed {seed}: {k} = {totals[k]}, recorded {v}"
        first = self.seen.setdefault(seed, totals)
        if totals != first:
            return f"seed {seed}: totals {totals} differ from an earlier run's {first}"
        return None


def tester_seed(w, base, i):
    """Tester seed of the i-th run: even runs repeat the pinned seed, so every
    benchmark run checks all recorded totals and that repeats are identical;
    odd runs sample Stage II randomness from base."""
    return w["expect"]["pinned_seed"] if i % 2 == 0 else base * 1000 + i


def tester_run(w, inp, seed, out, checker, timeout):
    """One untraced `planartest test` child; returns a result dict."""
    cmd = [str(PLANARTEST), "test", str(inp), "--eps", str(w["eps"]),
           "--seed", str(seed), "--mode", w["mode"], "--domains", "1",
           "--no-ground-truth", "--stats-json", str(out), "--log-level", "warn"]
    if out.exists():
        out.unlink()
    code, wall, rss = timed_child(cmd, subprocess.DEVNULL, timeout)
    res = {"wall": wall, "rss": rss, "doc": None, "error": None}
    if code is None:
        res["error"] = f"timed out after {timeout:.0f} s"
    elif code != 0:
        res["error"] = f"exit code {code}"
    else:
        try:
            res["doc"] = json.loads(out.read_text())
        except (OSError, ValueError) as e:
            res["error"] = f"unreadable stats JSON: {e}"
        else:
            res["error"] = checker.check(seed, res["doc"])
    return res


def traced_run(w, inp, seed, work, checker, timeout):
    """One run of the layer probe; returns a result dict of raw numbers."""
    probe_input = work / "probe-input.txt"
    cmd = [str(LAYERS), "--family", w["family"], "--n", str(w["n"]),
           "--param", str(w["param"]), "--graph-seed", str(w["graph_seed"]),
           "--eps", str(w["eps"]), "--seed", str(seed), "--mode", w["mode"],
           "--input", str(probe_input),
           "--stats-json", str(work / "probe-stats.json")]
    out_path = work / "probe-out.json"
    with open(out_path, "wb") as out:
        code, wall, _ = timed_child(cmd, out, timeout)
    res = {"wall": wall, "raw": None, "error": None}
    if code is None:
        res["error"] = f"timed out after {timeout:.0f} s"
    elif code != 0:
        res["error"] = f"exit code {code}"
    elif probe_input.read_bytes() != inp.read_bytes():
        res["error"] = "the probe generated a different graph than planartest gen"
    else:
        try:
            res["raw"] = json.loads(out_path.read_text().strip().splitlines()[-1])
        except (OSError, ValueError, IndexError) as e:
            res["error"] = f"unreadable probe output: {e}"
        else:
            res["error"] = checker.check(seed, res["raw"])
    return res


def timeout_left(t_start):
    return max(5.0, min(CHILD_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - t_start)))


def median(xs):
    return statistics.median(xs) if xs else 0.0


def outside_wall(res):
    """The traced run proper as timed from outside: the probe child's whole
    wall (exec, runtime start-up and teardown included) less the set-up it
    also does (generation, input write) and its Oracle replay."""
    r = res["raw"]
    return res["wall"] - r["gen_s"] - r["write_s"] - r["replay_s"]


def layer_metrics(res):
    """Per-layer metrics of one traced run, from the probe's raw numbers."""
    r = res["raw"]
    total = outside_wall(res)
    p_self = r["partition_wall_s"] - r["partition_engine_s"]
    s2_self = r["stage2_wall_s"] - r["stage2_engine_s"]
    congest = r["congest_wall_s"]
    msgs, rounds = r["congest_messages"], r["congest_rounds"]
    attributed = r["load_s"] + p_self + s2_self + congest + r["report_s"]
    return {
        "graphlib.gen_s": (r["gen_s"], "s"),
        "graphlib.io_s": (r["write_s"] + r["load_s"], "s"),
        "congest.wall_s": (congest, "s"),
        "congest.runs": (r["congest_runs"], "count"),
        "congest.compiled_run_share":
            (r["congest_compiled_runs"] / max(1, r["congest_mode_runs"]), "ratio"),
        "congest.messages": (msgs, "count"),
        "congest.ff_round_share": (r["congest_ff_rounds"] / max(1, rounds), "ratio"),
        "congest.ns_per_msg": (congest * 1e9 / max(1, msgs), "ns"),
        "congest.us_per_round": (congest * 1e6 / max(1, rounds), "us"),
        "partition.wall_s": (r["partition_wall_s"], "s"),
        "partition.engine_s": (r["partition_engine_s"], "s"),
        "partition.self_s": (p_self, "s"),
        "partition.alloc_mwords": (r["partition_alloc_words"] / 1e6, "Mword"),
        "partition.phases": (r["partition_phases"], "count"),
        "partition.phase_max_s": (r["partition_phase_max_s"], "s"),
        "tester.stage2.wall_s": (r["stage2_wall_s"], "s"),
        "tester.stage2.engine_s": (r["stage2_engine_s"], "s"),
        "tester.stage2.self_s": (s2_self, "s"),
        "tester.stage2.alloc_mwords": (r["stage2_alloc_words"] / 1e6, "Mword"),
        "tester.stage2.rounds": (r["stage2_rounds"], "count"),
        "tester.stage2.bits": (r["stage2_bits"], "bit"),
        "tester.stage2.share": (r["stage2_wall_s"] / total, "ratio"),
        "planarity.embed_s": (r["embed_s"], "s"),
        "planarity.parts": (r["embed_parts"], "count"),
        "report.stats_json_s": (r["report_s"], "s"),
        "report.stats_json_bytes": (r["report_bytes"], "B"),
        # What the layers do not account for: process start-up, runtime
        # init, teardown and the gaps between the timed spans.
        "unattributed_s": (total - attributed, "s"),
    }


def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<7} {note}")


def another_fits(t_start, seconds, walls):
    """True while one more run of the median length ends within --seconds."""
    return time.perf_counter() - t_start + median(walls) <= seconds


def run_e2e(w, seed, seconds, work, checker, t_start):
    # Set-ups are spread over the whole window, like the tester runs, so
    # setup_s sees the same host conditions as wall_s.
    inp = work / "input.txt"
    setup_s, graph = setup(w, inp)
    setups, runs = [setup_s], []
    while not runs or another_fits(t_start, seconds, [r["wall"] for r in runs]):
        setups += [setup(w, inp, graph)[0] for _ in range(SETUP_PER_RUN)]
        runs.append(tester_run(w, inp, tester_seed(w, seed, len(runs)),
                               work / "stats.json", checker, timeout_left(t_start)))
    ok = [r for r in runs if r["error"] is None]
    for i, r in enumerate(runs):
        if r["error"]:
            log(f"run {i}: FAILED: {r['error']}")
    walls = sorted(r["wall"] for r in ok)
    doc = ok[0]["doc"] if ok else {}
    pass_rate = len(ok) / len(runs)
    metrics = {
        "wall_s": (median(walls), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median([r["rss"] for r in ok]), "MB"),
        "sim_msgs_per_s": (median([r["doc"]["messages"] / r["wall"] for r in ok]), "1/s"),
        "pass_rate": (pass_rate, "ratio"),
        "sim_rounds": (doc.get("rounds", 0), "count"),
        "sim_messages": (doc.get("messages", 0), "count"),
    }
    spread = ("median of runs " + " ".join(f"{x:.3f}" for x in walls)
              if walls else "no passing run")
    notes = {"wall_s": spread, "setup_s": f"median of {len(setups)}",
             "pass_rate": f"error_rate = {1 - pass_rate:.3g} "
                          f"({len(runs) - len(ok)} of {len(runs)} failed)"}
    print_table(f"end-to-end metrics, workload {w['name']}, seed {seed}",
                [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()])
    return metrics, len(runs), len(runs) - len(ok)


def run_traced(w, seed, seconds, work, checker, t_start):
    inp = work / "input.txt"
    setup(w, inp)
    plain, traced = [], []
    while not (plain and traced) or another_fits(
            t_start, seconds, [r["wall"] for r in plain + traced]):
        # Runs alternate untraced, traced; each pair shares a tester seed, so
        # the checker asserts the traced totals equal the untraced ones.
        pair_seed = tester_seed(w, seed, len(traced))
        if len(plain) <= len(traced):
            plain.append(tester_run(w, inp, pair_seed, work / "stats.json",
                                    checker, timeout_left(t_start)))
        else:
            traced.append(traced_run(w, inp, pair_seed, work, checker,
                                     timeout_left(t_start)))
    failed = [r for r in plain + traced if r["error"]]
    for r in failed:
        log(f"run FAILED: {r['error']}")
    ok_plain = [r for r in plain if r["error"] is None]
    ok_traced = [r for r in traced if r["error"] is None]
    per_run = [layer_metrics(r) for r in ok_traced]
    metrics = {}
    if per_run:
        # median_low: a count reads as one observed value, not a midpoint.
        for k, (_, unit) in per_run[0].items():
            metrics[k] = (statistics.median_low([m[k][0] for m in per_run]), unit)
        total = median([outside_wall(r) for r in ok_traced])
        untraced = median([r["wall"] for r in ok_plain])
        overhead = (total / untraced - 1) * 100 if untraced else 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        print_table(f"per-layer metrics, workload {w['name']}, seed {seed}, "
                    f"median of {len(per_run)} traced runs",
                    [(k, v, u, "") for k, (v, u) in metrics.items()])
        rows = [
            ("congest (engine stepping)", metrics["congest.wall_s"][0], ""),
            ("tester.stage2 self", metrics["tester.stage2.self_s"][0],
             f"incl. planarity.embed_s {metrics['planarity.embed_s'][0]:.3f} s"),
            ("partition self", metrics["partition.self_s"][0], ""),
            ("report (stats JSON)", metrics["report.stats_json_s"][0], ""),
            ("graphlib (Gio.load)", median([r["raw"]["load_s"] for r in ok_traced]), ""),
        ]
        rows.sort(key=lambda r: -r[1])
        rows.append(("unattributed", metrics["unattributed_s"][0],
                     "start-up, runtime init, teardown, gaps"))
        print(f"where did the wall go (traced child {total:.3f} s from outside, "
              f"less set-up and replay; untraced wall_s {untraced:.3f} s)")
        for name, s, note in rows:
            print(f"  {name:<26} {s:>9.3f} s {100 * s / total:>6.1f}%  {note}")
    return metrics, len(plain) + len(traced), len(failed)


def bench_one(w, args):
    """Run one workload; print its tables and result line; return the exit code."""
    work = ROOT / ".perfbench" / f"{w['name']}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checker = Checker(w)
    t_start = time.perf_counter()
    try:
        run = run_traced if args.trace else run_e2e
        metrics, attempted, failed = run(w, args.seed, args.seconds, work,
                                         checker, t_start)
    except SetupError as e:
        log(f"perfbench: set-up failed: {e}")
        metrics, attempted, failed = {}, 1, 1
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    else:
        log(f"perfbench: inputs and outputs kept in {work}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv):
    # A terminated runner stops its running child too (see timed_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spec", default=str(HERE / "workloads.json"),
                    help="workload definitions (tests pass a smaller copy)")
    args = ap.parse_args(argv)
    try:
        spec = json.loads(Path(args.spec).read_text())["workloads"]
        names = list(spec) if args.workload == "all" else [args.workload]
        for name in names:
            if name not in spec:
                raise SetupError(f"unknown workload {name!r}; known: "
                                 + ", ".join(spec))
        build()
    except (OSError, ValueError, KeyError, SetupError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2
    codes = [bench_one(dict(spec[name], name=name), args) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
