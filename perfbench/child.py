"""Run one benchmark operation in a fresh process and write its result as JSON.

Usage: python3 child.py JOB.json

The job names a mode:

* ``setup``: import qmcool and resolve the config of each given operation,
  then exit; ``ready_ns`` marks the moment the process was ready to work.
* ``cli``: one ``qmcool`` CLI command through ``qmcool.cli.main``.
* ``basis``: the API loop ``haar_unitary -> rotate_basis -> run_cycle`` over
  ``samples`` bases read from a config file, cycling through its omega2
  values; every tenth basis is checked against the closed form.

``trace`` installs the span wrappers of :mod:`spans`; ``memprobe`` installs
the tracemalloc probe around the Haar sampler instead.  Timings exclude the
import and the checks.

A :class:`SpeedProbe` samples the CPU speed of this process every 20 ms, so
the parent can scale each time to a reference speed.  All stamps are
``time.perf_counter_ns`` (the system-wide monotonic clock), comparable
across processes.
"""

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

CHECK_STRIDE = 10  # every CHECK_STRIDE-th basis is checked in closed form
TRIPLE_TOL = 1e-12
SLACK_FLOOR = -1e-10
PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 2000  # about 0.15 ms of pure-Python work


def probe_loop():
    """Duration in ns of a fixed pure-Python loop."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter_ns() - t0


class SpeedProbe:
    """Time a fixed loop from a timer signal while the timed work runs.

    Shared hosts change the speed of a vCPU by tens of per cent for seconds
    at a time.  The samples (stamp, loop ns) let the parent scale a measured
    time to a reference speed; ``spent_ns`` is the time the probe itself
    took, which the timed code subtracts.
    """

    def __init__(self):
        self.samples = []
        self.spent_ns = 0

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append((t0, probe_loop()))
        self.spent_ns += time.perf_counter_ns() - t0

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)


def _import_qmcool(root):
    import qmcool
    import qmcool.cli

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(qmcool.__file__).startswith(src + os.sep):
        raise SystemExit(f"qmcool imported from {qmcool.__file__}, not from {src}")
    return qmcool


def _closed_form_triple(u, cfg, omega2):
    """(dE1, dE2, dE) = p^T (P P^T - I) h_i with P = |U C|^2, for the Gibbs product p."""
    import numpy as np

    def ground(beta, omega):
        return 0.5 * (1.0 + np.tanh(0.5 * beta * omega))

    p1, p2 = ground(cfg.beta1, cfg.omega1), ground(cfg.beta2, omega2)
    p = np.array([p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2)])
    s = 1.0 / np.sqrt(2.0)
    c = np.array([[1, 0, 0, 0], [0, s, s, 0], [0, s, -s, 0], [0, 0, 0, 1]]).T
    big_p = np.abs(u @ c) ** 2
    b = big_p @ big_p.T - np.eye(4)
    h1 = 0.5 * cfg.omega1 * np.array([-1.0, -1.0, 1.0, 1.0])
    h2 = 0.5 * omega2 * np.array([-1.0, 1.0, -1.0, 1.0])
    de1, de2 = float(p @ b @ h1), float(p @ b @ h2)
    return de1, de2, de1 + de2


def resolve(qmcool, op):
    """Config resolution of one operation, as the operation itself does it."""
    if op["mode"] == "cli":
        return qmcool.cli.resolve_config(qmcool.cli.build_parser().parse_args(op["argv"]))
    cfg = qmcool.cli.resolve_config(argparse.Namespace(config=op["config"], seed=op["seed"]))
    return cfg, [cfg.engine_config(w2) for w2 in cfg.omega2]


def _basis_loop(qmcool, job, result, probe):
    clock = time.perf_counter_ns
    t_start, spent_start = clock(), probe.spent_ns
    cfg, engines = resolve(qmcool, job)
    canonical = qmcool.canonical_basis()
    n = cfg.samples
    starts, latencies, reports, kept = [], [], [], {}
    failed = 0
    for i in range(n):
        t0, spent0 = clock(), probe.spent_ns
        try:
            u = qmcool.haar_unitary(qmcool.HaarSampler(cfg.seed, i))
            report = qmcool.run_cycle(engines[i % len(engines)], qmcool.rotate_basis(u, canonical),
                                      eps=cfg.eps)
        except Exception:  # a failed basis is counted, the loop goes on
            failed += 1
            report = None
            if "error" not in result:
                result["error"] = traceback.format_exc()
        starts.append(t0)
        latencies.append(clock() - t0 - (probe.spent_ns - spent0))
        reports.append(report)
        if report is not None and i % CHECK_STRIDE == 0:
            kept[i] = u
    result.update(start_ns=t_start, end_ns=clock(), probe_ns=probe.spent_ns - spent_start)

    lines, problems = [], []
    for i, report in enumerate(reports):
        if report is None:
            lines.append(f"{i},failed")
            continue
        lines.append(f"{i},{report.dE1!r},{report.dE2!r},{report.dE!r},{report.classification}")
        bad = not report.second_law_slack >= SLACK_FLOOR
        if i in kept:
            expect = _closed_form_triple(kept[i], cfg, cfg.omega2[i % len(engines)])
            got = (report.dE1, report.dE2, report.dE)
            bad = bad or any(not abs(g - e) <= TRIPLE_TOL for g, e in zip(got, expect))
        if bad:
            failed += 1
            problems.append(f"basis {i}: ({report.dE1!r}, {report.dE2!r}, {report.dE!r}), "
                            f"slack {report.second_law_slack!r}")
    with open(job["out"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    result.update(basis_start_ns=starts, latencies_ns=latencies, attempted=n, failed=failed,
                  problems=problems[:5], checked=len(kept))


def main():
    probe = SpeedProbe().start()
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"mode": job["mode"]}
    qmcool = _import_qmcool(job["root"])

    if job["mode"] == "setup":
        for op in job["ops"]:
            resolve(qmcool, op)
        result.update(ready_ns=time.perf_counter_ns(), probe_ns=probe.spent_ns)
        import numpy

        backend = getattr(qmcool._accel, "backend_name", None)
        result.update(numpy=numpy.__version__, backend=backend() if backend else "n/a")
    else:
        tracer = memory = None
        if job.get("trace"):
            import spans

            tracer = spans.Tracer().install()
        elif job.get("memprobe"):
            import spans

            memory = spans.MemoryProbe().install()
        if job["mode"] == "cli":
            t0, spent0 = time.perf_counter_ns(), probe.spent_ns
            try:
                rc = qmcool.cli.main(job["argv"])
            except Exception:  # reported as a failed operation
                rc = -1
                result["error"] = traceback.format_exc()
            result.update(start_ns=t0, end_ns=time.perf_counter_ns(),
                          probe_ns=probe.spent_ns - spent0, rc=rc, attempted=1,
                          failed=int(rc != 0))
        else:
            _basis_loop(qmcool, job, result, probe)
        if tracer is not None:
            result["trace"] = tracer.snapshot()
        if memory is not None:
            result["mem"] = {"calls": memory.calls, "peak_bytes": memory.peak_bytes}
    probe.stop()
    result["speed_samples"] = probe.samples
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
