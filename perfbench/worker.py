"""One benchmark pass in a fresh process: ``python3 worker.py JOB``.

The job file names the operations (argument lists for ``involute.cli.main``),
where to write what each printed, whether to trace, and where to write the
result.  The worker reports ``time.monotonic()`` when ``import involute``
has finished, so the parent can time set-up from the moment it started the
process.  Operations run one after another in this process, with no threads.

The worker also gauges the speed of the machine while it works (``Probe``):
it times a small fixed pure-Python kernel before and after set-up, before
and after each operation and, from a ``SIGALRM`` interval timer, every
``PROBE_INTERVAL_S`` during each operation.  The parent uses the median
kernel time to report times at one fixed machine speed (see ``METRICS.md``).
The kernel's own time during an operation is subtracted from its wall time.
"""

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

#: How often the kernel is timed while an operation runs.
PROBE_INTERVAL_S = 0.02
#: Kernel timings taken just before and just after each operation.
PROBE_EDGE = 5

_TABLE = [[(7 * i + 3 * j + i * j) % 47 for j in range(47)] for i in range(47)]


def kernel():
    """About 0.18 ms of table lookups, arithmetic and dict stores: the kind
    of interpreter work the program does."""
    t = _TABLE
    seen = {}
    acc = 0
    for i in range(47):
        row = t[i]
        for j in range(0, 47, 2):
            k = row[j]
            acc += t[k][j]
            seen[(k, i)] = acc
    return acc


class Probe:
    """Times ``kernel`` on demand and, between ``start`` and ``stop``, from
    an interval timer that interrupts whatever Python code is running."""

    def __init__(self):
        self.samples = []
        self.cost = 0.0  # seconds spent in the timer's handler since start

    @staticmethod
    def measure(count):
        """Time ``count`` runs of the kernel after one untimed run, which
        brings its code and data back into the caches the program used."""
        kernel()
        out = []
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            out.append(time.perf_counter() - t0)
        return out

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples += self.measure(1)
        self.cost += time.perf_counter() - t0

    def start(self):
        self.samples = []
        self.cost = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        """Stop the timer; the samples taken since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        samples, self.samples = self.samples, []
        return samples


def run(job, probe):
    from involute import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = i
        buf = io.StringIO()
        error = None
        if probe is not None:
            before = probe.measure(PROBE_EDGE)
            probe.start()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code!r})"
        except Exception as exc:  # the op failed; the pass goes on
            rc, error = None, repr(exc)
        wall = time.perf_counter() - t0
        speed = None
        if probe is not None:
            inside = probe.stop()
            # the handler ran inside the timed interval
            wall -= probe.cost
            speed = statistics.median(before + inside + probe.measure(PROBE_EDGE))
        text = buf.getvalue()
        with open(op["out"], "w") as fh:
            fh.write(text)
        ops.append({"seconds": wall, "rc": rc, "error": error, "bytes": len(text.encode()),
                    "probe_s": speed})
    return ops, tracer


def peak_rss_kb():
    """Peak resident set of this process since it started the worker script.

    ``ru_maxrss`` would also count the parent's pages at the fork, since
    Linux carries that mark across exec; ``VmHWM`` belongs to the new image.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    probe = Probe()
    t0 = time.monotonic()
    before = probe.measure(PROBE_EDGE)
    cost = time.monotonic() - t0
    import involute  # noqa: F401  (set-up ends when the package is imported)

    # the kernel ran inside the parent's set-up interval
    ready = time.monotonic() - cost
    setup_probe_s = statistics.median(before + probe.measure(PROBE_EDGE))
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    # a traced pass runs without the probe, so its spans time only the program
    ops, tracer = run(job, None if job["trace"] else probe)
    result = {
        "ready": ready,
        "setup_probe_s": setup_probe_s,
        "ops": ops,
        "peak_rss_kb": peak_rss_kb(),
        "spans": tracer.spans if tracer else [],
        "absent": tracer.absent if tracer else [],
    }
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])


if __name__ == "__main__":
    main()
