#!/usr/bin/env python3
"""Campaign benchmark for sttsim.

Runs one workload end to end and prints its metrics; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.

    python3 campaignbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

Workloads (all on the full 26-kernel suite; figures run in an order the seed
permutes, and every figure must equal its pinned reference on any seed):

  paper_cold    Figs. 1, 3, 4, 5, 6, 8 and 9 with no stores: how a user
                regenerates the paper. Trace synthesis is the largest layer.
  explore_warm  The VWB-size, banking, store-buffer, write-mitigation, clock,
                cell and iso-area sweeps against a trace store holding every
                trace and a result store holding three of the eight figures.
                Replay and result-store traffic dominate; nothing is
                synthesized.
  reliability   The three fig_reliability_* figures with no stores: replay
                through the faulted DL1 decorator and SEC-DED ECC.

--trace 0 times whole runner processes at pool width nproc and prints the
end-to-end metrics. --trace 1 prints the per-layer table: one traced run at
--jobs=1 that calls each layer itself, plus one untraced run at --jobs=1
(tracing overhead) and one at nproc (pool utilization).

The program is built from the checkout's own sources into
$CARGO_TARGET_DIR/campaignbench (default .bench_build/campaignbench). Each
result, with the host fingerprint, is also written under
<build dir>/results/; compare.py compares two sets of them. Traced runs leave
a Chrome trace-event file under <build dir>/traces/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("paper_cold", "explore_warm", "reliability")
ORGS = ("sram-baseline", "nvm-drop-in", "nvm-vwb", "nvm-l0", "nvm-emshr",
        "nvm-writebuf", "nvm-vwb-faulted")
# A user's store settings must not turn a cold workload warm. The runner does
# not read these, and its children do not see them.
STORE_ENV = ("STTSIM_RESULT_STORE", "STTSIM_TRACE_STORE")
# setup_s is the median of at least MIN_SETUPS set-ups, and of more when
# they are quick (a cold workload's set-up takes milliseconds).
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 0.5, 25
MIN_REPS = 3   # timed repetitions per run, whatever --seconds says

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_mops_per_s", "Mop/s", "higher"),
    ("setup_s", "s", "lower"),
    ("cells_ok_frac", "frac", "higher"),
    ("paper_gap_pp", "pp", "lower"),
]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = [
        ("workloads.synth_s", "s", "lower"),
        ("workloads.synth_ns_per_op", "ns/op", "lower"),
        ("workloads.traces", "count", "lower"),
        ("workloads.compress_s", "s", "lower"),
        ("trace_store.open_s", "s", "lower"),
        ("trace_store.load_s", "s", "lower"),
        ("trace_store.hit_frac", "frac", "higher"),
        ("trace_store.append_s", "s", "lower"),
        ("trace_store.mb", "MB", "lower"),
        ("replay.s", "s", "lower"),
    ]
    spec += [("replay.%s.ns_per_op" % o, "ns/op", "lower") for o in ORGS]
    spec += [
        ("result_store.open_s", "s", "lower"),
        ("result_store.probe_us_per_point", "us/point", "lower"),
        ("result_store.append_us_per_point", "us/point", "lower"),
        ("result_store.hit_frac", "frac", "higher"),
        ("experiments.assembly_s", "s", "lower"),
        ("check.s", "s", "lower"),
        ("check.failed_frac", "frac", "lower"),
        ("pool.busy_frac", "frac", "higher"),
        ("trace.harness_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.layer_sum_frac", "frac", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    for o in ORGS:
        p = "sim.%s." % o
        spec += [
            (p + "ops", "count", "higher"),
            (p + "core.ipc", "instr/cycle", "higher"),
            (p + "core.read_stall_frac", "frac", "lower"),
            (p + "core.write_stall_frac", "frac", "lower"),
            (p + "mem.front_hit_rate", "frac", "higher"),
            (p + "mem.l1_miss_rate", "frac", "lower"),
            (p + "mem.l2_misses", "count", "lower"),
            (p + "mem.bank_conflict_cycles", "cycles", "lower"),
            (p + "mem.ecc_corrections", "count", "lower"),
        ]
    return spec


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A benchmark step that could not run at all."""


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, out, "campaignbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("no sttsim sources at %s/src: run the benchmark from a "
                      "checkout of the repository" % ROOT)
    bdir = build_dir()
    configure = ["cmake", "-S", BENCH, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "campaign_runner",
                    "-j", str(nproc())], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "campaign_runner")


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    return {k: v for k, v in os.environ.items() if k not in STORE_ENV}


def call(runner, args, log_dir):
    """Runs one runner command; returns (wall s, rusage, JSON result)."""
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([runner] + args, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        with open(err_path, errors="replace") as f:
            log(f.read()[-4000:])
        raise Failure("runner %s exited %d without a result"
                      % (args[0], proc.returncode))
    if proc.returncode != 0 or not result.get("ok"):
        for line in result.get("failures", []):
            log("FAILED %s: %s" % (args[0], line))
    return wall, usage, result


def fingerprint(runner, work):
    _, _, fp = call(runner, ["fingerprint"], work)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fp.update({"cpu_model": cpu, "nproc": nproc()})
    return fp


class Campaign:
    def __init__(self, runner, workload, seed, work):
        self.runner = runner
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ref = os.path.join(BENCH, "ref")
        self.ok = True
        self.figures = 0
        self.failed_figures = 0

    def tally(self, result):
        self.ok &= bool(result.get("ok"))
        self.figures += result.get("figures", 0)
        self.failed_figures += result.get("failed_figures", 0)

    def setup(self, jobs):
        """Builds the starting state in a fresh directory; returns (dir, s)."""
        t0 = time.perf_counter()
        d = tempfile.mkdtemp(prefix="setup-", dir=self.work)
        _, _, res = call(self.runner, ["setup", "--workload=" + self.workload,
                                       "--dir=" + d, "--jobs=%d" % jobs],
                         self.work)
        elapsed = time.perf_counter() - t0
        self.ok &= bool(res.get("ok"))
        return d, elapsed

    def rep(self, template, jobs):
        """One run of the workload from a byte-identical copy of the set-up
        state, in a fresh directory that is deleted afterwards."""
        d = tempfile.mkdtemp(prefix="rep-", dir=self.work)
        try:
            for name in os.listdir(template):
                shutil.copyfile(os.path.join(template, name),
                                os.path.join(d, name))
            wall, usage, res = call(self.runner, [
                "run", "--workload=" + self.workload, "--dir=" + d,
                "--jobs=%d" % jobs, "--seed=%d" % self.seed,
                "--ref=" + self.ref], self.work)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        self.tally(res)
        res.update({"wall_s": wall,
                    "cpu_s": usage.ru_utime + usage.ru_stime,
                    "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6})
        return res

    def golden(self, jobs):
        golden_dir = os.path.join(ROOT, "tests", "golden")
        _, _, res = call(self.runner, [
            "golden", "--workload=" + self.workload, "--golden=" + golden_dir,
            "--jobs=%d" % jobs], self.work)
        self.tally(res)

    def end_to_end(self, seconds):
        jobs = nproc()
        setups = []
        while len(setups) < MIN_SETUPS or (
                len(setups) < MAX_SETUPS
                and sum(s for _, s in setups) < SETUP_SECONDS):
            if setups:
                shutil.rmtree(setups[-1][0])
            setups.append(self.setup(jobs))
        template = setups[-1][0]
        # The first figure process of a batch has been measured at 3x the
        # time of the ones after it; it is run and checked but not timed.
        self.rep(template, jobs)
        reps = []
        t0 = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
            reps.append(self.rep(template, jobs))
        self.golden(jobs)

        gaps = {r["paper_gap_pp"] for r in reps}
        if len(gaps) != 1:
            log("FAILED: paper_gap_pp differs between repetitions: %s" % gaps)
            self.ok = False
        cells = sum(r["cells"] for r in reps)
        failed_cells = sum(r["failed_cells"] for r in reps)
        med = lambda key: statistics.median(r[key] for r in reps)
        values = {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "sim_mops_per_s": statistics.median(
                r["trace_ops"] / r["wall_s"] / 1e6 for r in reps),
            "setup_s": statistics.median(s for _, s in setups),
            "cells_ok_frac": 1 - failed_cells / cells if cells else 0.0,
            "paper_gap_pp": reps[0]["paper_gap_pp"],
        }
        samples = {"setup_s": [s for _, s in setups],
                   "reps": [{k: r[k] for k in ("wall_s", "cpu_s",
                                               "peak_rss_mb", "trace_ops",
                                               "campaign_s", "order")}
                            for r in reps]}
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in END_TO_END}, samples

    def per_layer(self):
        jobs = nproc()
        template, _ = self.setup(jobs)
        self.rep(template, jobs)  # untimed first process, as above
        wide = self.rep(template, jobs)
        serial = self.rep(template, 1)

        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        chrome = os.path.join(traces, "%s-seed%d.json"
                              % (self.workload, self.seed))
        d = tempfile.mkdtemp(prefix="trace-", dir=self.work)
        try:
            _, _, traced = call(self.runner, [
                "trace", "--workload=" + self.workload, "--dir=" + d,
                "--seed=%d" % self.seed, "--ref=" + self.ref,
                "--trace-out=" + chrome], self.work)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        self.tally(traced)
        log("chrome trace: %s" % chrome)

        # The decomposition must do the work the program does: as many
        # syntheses, trace-store loads, replays and memo hits as Telemetry
        # counts in the untraced run at the same pool width.
        for mine, theirs in (("traces_synthesized", "traces_generated"),
                             ("trace_loads", "trace_store_hits"),
                             ("replays", "simulations"),
                             ("probe_hits", "memo_hits")):
            if traced[mine] != serial[theirs]:
                log("FAILED: traced run did %d %s, the program %d %s"
                    % (traced[mine], mine, serial[theirs], theirs))
                self.ok = False
        m = traced["metrics"]
        if abs(m["trace.layer_sum_frac"] - 1) > 0.05:
            log("FAILED: layer self times sum to %.3f of traced wall"
                % m["trace.layer_sum_frac"])
            self.ok = False
        busy = wide["generate_s"] + wide["decode_s"] + wide["replay_s"]
        m["pool.busy_frac"] = busy / (wide["campaign_s"] * jobs)
        m["trace.overhead_frac"] = m["trace.wall_s"] / serial["campaign_s"] - 1
        samples = {"wide": wide, "serial": serial, "chrome_trace": chrome}
        return {name: {"value": m[name], "unit": unit}
                for name, unit, _ in per_layer_spec()}, samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        runner = build()
    except (Failure, subprocess.CalledProcessError) as e:
        log("campaignbench: %s" % e)
        return 2
    work_root = os.path.join(build_dir(), "work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=work_root)
    try:
        fp = fingerprint(runner, work)
        c = Campaign(runner, args.workload, args.seed, work)
        if args.trace:
            metrics, samples = c.per_layer()
        else:
            metrics, samples = c.end_to_end(args.seconds)
    except Failure as e:
        log("campaignbench: %s" % e)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "fingerprint": fp, "correct": c.ok,
              "metrics": metrics, "samples": samples}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log("host: %s" % json.dumps(fp))
    for name, m in metrics.items():
        log("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    log("result record: %s" % path)
    print(json.dumps({"correct": c.ok, "attempted": max(c.figures, 1),
                      "failed": c.failed_figures, "metrics": metrics}))
    return 0 if c.ok else 1


if __name__ == "__main__":
    sys.exit(main())
