"""Benchmark for the involute toolkit.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Workloads (see ``corpus.WHY`` and
``METRICS.md``):

* ``tables`` and ``groups``: an op is one ``involute.cli.main(["analyze",
  FILE, "--json"])`` call with stdout captured, on tables generated from
  ``--seed`` before the worker starts;
* ``verify``: an op is one battery check,
  ``cli.main(["verify", "--stretch", "--only", NAME, "--json"])``, all
  sixteen in the default order in one process.

The load is closed-loop, one client, one worker process at a time, with no
threads and no queue, so there is no waiting time to report.  Each pass runs
in a fresh worker (no cache carries over); after the first, a pass starts
only if it should end within ``--seconds`` of the first pass's start.
``--trace 0`` reports the end-to-end metrics, with the gated times scaled
to one fixed machine speed by a kernel the worker times around and during
each op (``worker.Probe``, ``REFERENCE_KERNEL_S``); ``--trace 1`` alternates
untraced and traced passes on the same inputs, asserts their outputs are
identical and reports per-layer metrics plus the tracing overhead.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("tables", "groups", "verify")
END_TO_END = {"run_cal_s": "s", "op_p50_cal_s": "s", "op_p90_cal_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB", "run_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "setup_wall_s": "s"}
#: Printed and recorded, but left out of the result line: on ``verify``,
#: ``op_p50_cal_s`` is one small check's time with one sample per run, and it
#: spread from 0.07 to 0.22 over sets of runs; the wall times move with the
#: speed of the shared machine.
UNGATED = {"op_p50_cal_s", "run_s", "op_p50_s", "op_p90_s", "setup_wall_s"}
#: The median time of ``worker.kernel`` on the 2-CPU machine the bounds were
#: set on, when nothing else slowed it.  The gated times are wall times scaled
#: by this over the kernel's median time around and during each op: the time
#: the op would take at that machine speed.
REFERENCE_KERNEL_S = 180e-6
#: Separate set-up samples per run; their median is ``setup_s``.
SETUP_STARTS = 8
#: Every run ends within this many seconds of starting, however slow the program.
DEADLINE_S = 170.0


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workdir: Path, tag: str, ops, trace: bool, deadline: float):
    """Run ``ops`` in a fresh worker; its result dict, or None if it died or
    ran past ``deadline``.  ``setup_s`` is added to the result."""
    job_path = workdir / f"{tag}.job.json"
    result_path = workdir / f"{tag}.result.json"
    job = {"trace": trace, "result": str(result_path),
           "ops": [{"argv": op["argv"], "out": str(op["out"])} for op in ops]}
    job_path.write_text(json.dumps(job))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                            cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker {tag} ran past the deadline and was stopped", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        print(f"worker {tag} exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - start
    return result


def pass_ops(workload, workdir: Path, seed: int, index: int, bases):
    """The ops of one pass, with their inputs written to ``workdir``."""
    if workload == "verify":
        return [{"name": check, "argv": ["verify", "--stretch", "--only", check, "--json"]}
                for check in corpus.CHECKS]
    written = corpus.write_inputs(corpus.items_of(workload), bases, workdir, seed, index)
    return [{"name": item.key, "item": item, "table": table,
             "argv": ["analyze", str(path.relative_to(ROOT)), "--json"]}
            for item, path, table in written]


def with_outputs(ops, workdir: Path, tag: str):
    return [dict(op, out=workdir / f"{tag}.out{i:02d}") for i, op in enumerate(ops)]


def op_errors(workload, op, record, reference) -> list[str]:
    """Why one op failed (empty if it succeeded and its output is right)."""
    if record is None:
        return ["worker died or ran past the deadline"]
    if record["error"] is not None:
        return [f"raised {record['error']}"]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}"]
    ref = reference.get(workload, {}).get(op["name"])
    if ref is None:
        return [f"no reference recorded for {op['name']}"]
    text = Path(op["out"]).read_text()
    if workload == "verify":
        return oracle.check_verify(op["name"], text, ref)
    return oracle.check_report(op["item"], text, op["table"], ref)


def at_reference_speed(seconds, kernel_s):
    return seconds * REFERENCE_KERNEL_S / kernel_s


def nearest_rank(values, q):
    """The q-quantile by nearest rank: an observed value, never a blend of
    two different ops' times."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace, reference):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.reference = reference
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = BENCH / ".work" / f"{workload}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.setups, self.setup_walls, self.rss_kb = [], [], []
        self.pass_walls, self.latencies, self.cal_latencies = [], [], []
        self.traced_walls, self.layer_samples, self.absent = [], [], set()
        self.passes = 0

    def count(self, ops, result):
        """Check every op of a pass and count it as attempted, and as failed
        if it raised, exited non-zero or printed a wrong answer."""
        records = result["ops"] if result else [None] * len(ops)
        for op, record in zip(ops, records):
            errors = op_errors(self.workload, op, record, self.reference)
            self.attempted += 1
            if errors:
                self.failed += 1
                print(f"FAIL {self.workload}/{op['name']}: " + "; ".join(errors),
                      file=sys.stderr)

    def add_setup(self, result):
        self.setup_walls.append(result["setup_s"])
        self.setups.append(at_reference_speed(result["setup_s"], result["setup_probe_s"]))

    def one_pass(self, bases):
        d = self.workdir / f"p{self.passes}"
        d.mkdir(parents=True)
        ops = pass_ops(self.workload, d, self.seed, self.passes, bases)
        plain_ops = with_outputs(ops, d, "plain")
        plain = run_worker(d, "plain", plain_ops, False, self.deadline)
        self.count(plain_ops, plain)
        if plain is None:
            return False
        walls = [r["seconds"] for r in plain["ops"]]
        self.pass_walls.append(sum(walls))
        self.latencies.append(walls)
        self.cal_latencies.append([at_reference_speed(r["seconds"], r["probe_s"])
                                   for r in plain["ops"]])
        self.add_setup(plain)
        self.rss_kb.append(plain["peak_rss_kb"])
        if self.trace:
            traced_ops = with_outputs(ops, d, "traced")
            traced = run_worker(d, "traced", traced_ops, True, self.deadline)
            self.attempted += len(ops)
            if traced is None:
                self.failed += len(ops)
                return False
            for a, b, op in zip(plain_ops, traced_ops, ops):
                if (oracle.comparable(Path(a["out"]).read_text(), self.workload)
                        != oracle.comparable(Path(b["out"]).read_text(), self.workload)):
                    self.failed += 1
                    print(f"FAIL {self.workload}/{op['name']}: traced output differs",
                          file=sys.stderr)
            twalls = [r["seconds"] for r in traced["ops"]]
            self.traced_walls.append(sum(twalls))
            metrics, _ = tracer.layer_metrics(
                traced["spans"], twalls, [r["bytes"] for r in traced["ops"]],
                [op["name"] for op in ops], corpus.CHECKS)
            self.layer_samples.append(metrics)
            self.absent.update(traced["absent"])
        shutil.rmtree(d)
        return True

    def execute(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            if not self.trace:
                # the first start also writes the bytecode cache; not a sample
                for i in range(SETUP_STARTS + 1):
                    started = run_worker(self.workdir, f"start{i}", [], False, self.deadline)
                    if started is None:
                        raise SystemExit("the program could not be imported")
                    if i:
                        self.add_setup(started)
            bases = {item.key: item.build() for item in corpus.items_of(self.workload)}
            first = last = time.monotonic()
            while self.one_pass(bases):
                self.passes += 1
                now = time.monotonic()
                # start another pass only if it should end within --seconds
                if now - first + (now - last) > self.seconds:
                    break
                last = now
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def metrics(self):
        if not self.pass_walls:
            return {}
        if self.trace:
            if not self.layer_samples:
                return {}
            out = {name: statistics.median(s[name] for s in self.layer_samples)
                   for name in tracer.metric_names(corpus.CHECKS)}
            out["bench.trace_overhead_s"] = (statistics.median(self.traced_walls)
                                             - statistics.median(self.pass_walls))
            return {k: {"value": v, "unit": tracer.unit_of(k)} for k, v in out.items()}
        # Every pass runs the same ops in the same order: a pass's time is the
        # sum over its ops of each op's median over the passes.  Percentiles
        # are taken over every op of every pass.
        def pass_time(latencies):
            return sum(statistics.median(times) for times in zip(*latencies))

        cal = [t for times in self.cal_latencies for t in times]
        wall = [t for times in self.latencies for t in times]
        values = {
            "run_cal_s": pass_time(self.cal_latencies),
            "op_p50_cal_s": nearest_rank(cal, 0.5),
            "op_p90_cal_s": nearest_rank(cal, 0.9),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(self.rss_kb) / 1024,
            "run_s": pass_time(self.latencies),
            "op_p50_s": nearest_rank(wall, 0.5),
            "op_p90_s": nearest_rank(wall, 0.9),
            "setup_wall_s": statistics.median(self.setup_walls),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy

    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def summary(run, metrics):
    lines = [f"workload {run.workload}: {run.passes} pass(es), {run.attempted} ops, "
             f"seed {run.seed}, trace {int(run.trace)}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    lines.append(f"  {'fail_ratio':<40} {ratio:.6g} ratio ({run.failed}/{run.attempted} ops)")
    if run.absent:
        lines.append(f"  absent (removed from the program): {', '.join(sorted(run.absent))}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "involute" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'involute'} is missing", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace), reference)
        run.execute()
        metrics = run.metrics()
        print(summary(run, metrics))
        print(json.dumps({"record": dict(env, workload=name, seed=args.seed,
                                         seconds=args.seconds, trace=args.trace,
                                         why=corpus.WHY[name], passes=run.passes,
                                         attempted=run.attempted, failed=run.failed,
                                         absent=sorted(run.absent), metrics=metrics)}))
        ok = run.failed == 0 and run.attempted > 0 and bool(metrics)
        correct = correct and ok
        attempted += run.attempted
        failed += run.failed
        for key, m in metrics.items():
            if key not in UNGATED:
                combined[key if len(names) == 1 else f"{name}.{key}"] = m
    if attempted == 0:
        attempted = failed = 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
