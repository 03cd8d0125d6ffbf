"""Benchmark of qmcool: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload haar-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --save out.json

Each workload is a closed loop with one client: it runs its operations (a
CLI command, or a basis of the API loop) one at a time, each batch of them
(a *body*) repeated with the same seed until ``--seconds`` have passed.
Every CLI command runs in a fresh single-threaded Python process
(``child.py``) that is given only generated config files, the seed and an
output path.  The package is imported from ``src/`` of the checkout.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced bodies (spans from ``spans.py`` around calls into each
module) and reports the per-layer metrics, the tracing overhead, and the
peak traced allocation of the Haar sampler (a separate tracemalloc body).
Both modes check every output; a failed command, exception or check counts
as a failed operation and makes the exit code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Times are reported at a reference CPU speed.  Each child samples the speed
of its vCPU every 20 ms with a fixed loop (``child.SpeedProbe``); a measured
time is multiplied by the mean of REFERENCE_PROBE_NS / loop time over the
samples taken while it ran.  On a shared host this removes most of the
host's swing in speed.  The raw times are printed on the info line.
"""

import argparse
import bisect
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")

RUN_BUDGET_S = 150.0  # no body starts after this; a run must end within 180 s
SETUP_REPEATS = 5  # least number of measured set-ups per run, after one unmeasured warm-up
MIN_BODIES = 3  # plain bodies per untraced run
MIN_TRACE_BODIES = 2  # plain and traced bodies each, per traced run
GINIBRE_BYTES = 256  # one complex128 4x4 matrix: 16 entries of 16 B
# Duration of child.probe_loop() at the reference CPU speed (the median over
# the runs that recorded the first baseline).  A time is reported as the
# measured time times the mean of REFERENCE_PROBE_NS / probe over the speed
# samples taken while it ran, i.e. the time at the reference speed.
REFERENCE_PROBE_NS = 160_000
PROBE_WINDOW_NS = 100_000_000  # speed samples within this distance scale a basis

# Engine parameters, written into every config file.
OMEGA1, BETA1, BETA2 = 1.02, 0.4, 1.0
# The paper's Haar grid: R-range up to beta1/beta2 * omega1 = 0.408, E up to 1.02.
OMEGA2_HAAR = (0.02, 0.06, 0.14, 0.18, 0.46, 0.86, 1.10)
# Eight R-range values (nu_c is root-found), four E and two A (nu_c is None).
OMEGA2_GRID = (0.02, 0.06, 0.10, 0.14, 0.18, 0.26, 0.34, 0.40,
               0.46, 0.60, 0.86, 1.00, 1.10, 1.40)
NU_GRID = tuple(round(0.01 * k, 2) for k in range(1, 101))  # ends at 1.0 = ideal

# name -> (why, config files, operations).  An operation is ("cli", command,
# config) or ("basis", config); the config's samples is the basis count.
WORKLOADS = {
    "haar-sweep": (
        "paper's Haar figure: frequency then haar-average on 7 omega2 rows sharing one seed; "
        "stream speed, reuse across rows (1/7 unique draws) and one classify per sample",
        {"sweep.cfg": {"omega2": OMEGA2_HAAR, "samples": 10000}},
        (("cli", "frequency", "sweep.cfg"), ("cli", "haar-average", "sweep.cfg")),
    ),
    "haar-deep": (
        "one haar-average row of 1e5 samples: bulk stream, QR and kernel throughput and memory "
        "growth with n; nothing shared across rows, so row reuse should not move it",
        {"deep.cfg": {"omega2": (0.18,), "samples": 100000}},
        (("cli", "haar-average", "deep.cfg"),),
    ),
    "channel-grid": (
        "noise on 14 omega2 x 100 nu then tomography with shots: optical trains, nu_c solver, "
        "density validation, tomography and CSV rows; no Haar stream, so Haar changes "
        "should not move it",
        {"grid.cfg": {"omega2": OMEGA2_GRID, "nu_values": NU_GRID, "shots": 10000}},
        (("cli", "noise", "grid.cfg"), ("cli", "tomography", "grid.cfg")),
    ),
    "basis-scan": (
        "API loop of single Haar draws, rotate_basis and run_cycle over 7 omega2: per-call cost "
        "of the Haar layer and the channel layer (qcore, thermo, measure) per basis",
        {"scan.cfg": {"omega2": OMEGA2_HAAR, "samples": 2000}},
        (("basis", "scan.cfg"),),
    ),
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen.  Times are scaled to the reference speed (see
# REFERENCE_PROBE_NS): on a shared 2-vCPU VM the raw times of 20 s runs spread
# by 7-28 % across seeds, the scaled ones by 3-9 %, and the scaled level still
# drifts by up to 10 % over tens of minutes, so every time has the largest
# bound allowed.  The tail is p90: the slowest 1 % of bases is dominated by
# host preemptions (p99.9 of 5-12 ms) whose rate changes from minute to minute
# (p99 spread 24 % across seeds, p90 3 %).  Peak RSS repeats to 0.3 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
)

# (name, unit, better); "<module>.<function>.<stat>" from the traced bodies.
PER_LAYER = (
    ("accel.ginibre_batch.calls", "count", "lower"),
    ("accel.ginibre_batch.samples", "count", "lower"),
    ("accel.ginibre_batch.self_s", "s", "lower"),
    ("accel.ginibre_batch.ns_per_sample", "ns", "lower"),
    ("accel.ginibre_batch.bytes_out", "B", "lower"),
    ("accel.ginibre_batch.unique_frac", "ratio", "higher"),
    ("accel.haar_from_ginibre.self_s", "s", "lower"),
    ("accel.haar_from_ginibre.ns_per_sample", "ns", "lower"),
    ("accel.cycle_energies_from_ginibre.self_s", "s", "lower"),
    ("accel.cycle_energies_from_ginibre.ns_per_sample", "ns", "lower"),
    ("accel.peak_alloc_mb", "MB", "lower"),
    ("engine.classify.calls", "count", "lower"),
    ("engine.classify.self_s", "s", "lower"),
    ("engine.classify.ns_per_call", "ns", "lower"),
    ("engine.critical_visibility.calls", "count", "lower"),
    ("engine.critical_visibility.self_s", "s", "lower"),
    ("engine.critical_visibility.de2_evals", "count", "lower"),
    ("measure.hom_noisy_channel.calls", "count", "lower"),
    ("measure.hom_noisy_channel.self_s", "s", "lower"),
    ("optics.projector_train_operators.calls", "count", "lower"),
    ("optics.projector_train_operators.self_s", "s", "lower"),
    ("optics.projector_train_operators.unique_frac", "ratio", "higher"),
    ("qcore.validate_density.calls", "count", "lower"),
    ("qcore.validate_density.self_s", "s", "lower"),
    ("qcore.validate_density.calls_per_cycle", "count", "lower"),
    ("engine.run_cycle.calls", "count", "lower"),
    ("engine.run_cycle.self_s", "s", "lower"),
    ("engine.energy_changes.self_s", "s", "lower"),
    ("measure.haar_unitary.calls", "count", "lower"),
    ("measure.haar_unitary.self_s", "s", "lower"),
    ("measure.rotate_basis.self_s", "s", "lower"),
    ("tomo.process_tomography.calls", "count", "lower"),
    ("tomo.process_tomography.self_s", "s", "lower"),
    ("tomo.measurement_tomography.calls", "count", "lower"),
    ("tomo.measurement_tomography.self_s", "s", "lower"),
    ("tomo.fidelity.self_s", "s", "lower"),
    ("cli.resolve_config.self_s", "s", "lower"),
    ("cli.emit.self_s", "s", "lower"),
    ("cli.emit.bytes", "B", "lower"),
    ("cli.emit.rows", "count", "lower"),
    ("trace.self_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


# ---------------------------------------------------------------- processes

def _child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child processes one at a time, never more than one at once."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def run(self, job):
        """Run one job; returns (result dict or None, stderr tail)."""
        self.count += 1
        path = os.path.join(self.work, f"job{self.count}.json")
        job = dict(job, root=ROOT, result=path + ".out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout = max(5.0, self.deadline - time.perf_counter())
        spawn_ns = time.perf_counter_ns()
        try:
            proc = subprocess.run([sys.executable, "-s", CHILD, path], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        err = proc.stderr.strip()[-400:]
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            return None, f"exit {proc.returncode}: {err}"
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["spawn_ns"] = spawn_ns
        return result, err


# ---------------------------------------------------------------- workloads

def _config_text(values):
    lines = [f"omega1 = {OMEGA1!r}", f"beta1 = {BETA1!r}", f"beta2 = {BETA2!r}"]
    for key, value in values.items():
        if isinstance(value, tuple):
            value = ", ".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _operations(name, seed, work):
    """Operation jobs of one body of the workload, with their output paths."""
    _, configs, ops = WORKLOADS[name]
    for file_name, values in configs.items():
        with open(os.path.join(work, file_name), "w", encoding="utf-8") as fh:
            fh.write(_config_text(values))
    jobs = []
    for k, op in enumerate(ops):
        config = os.path.join(work, op[-1])
        out = os.path.join(work, f"op{k}.csv")
        if op[0] == "cli":
            jobs.append({"mode": "cli", "command": op[1], "out": out,
                         "argv": [op[1], "--config", config, "--seed", str(seed), "--out", out],
                         "values": configs[op[-1]]})
        else:
            jobs.append({"mode": "basis", "command": "basis", "config": config, "seed": seed,
                         "out": out, "values": configs[op[-1]]})
    return jobs


# ---------------------------------------------------------------- checks

def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    body = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _depolarizing(omega, beta):
    return 0.8 * 0.5 * omega * math.tanh(0.5 * beta * omega)


def _canonical_ideal(omega2):
    """(dE1, dE2, dE) of the ideal canonical-basis measurement on the Gibbs product."""
    p1 = 0.5 * (1.0 + math.tanh(0.5 * BETA1 * OMEGA1))
    p2 = 0.5 * (1.0 + math.tanh(0.5 * BETA2 * omega2))
    a, b = p1 * (1.0 - p2), (1.0 - p1) * p2  # populations of |01> and |10>
    de1, de2 = 0.5 * OMEGA1 * (a - b), 0.5 * omega2 * (b - a)
    return de1, de2, de1 + de2


def _white_c1(nu):
    return (0.5 * (math.sqrt(1.0 + 3.0 * nu) - math.sqrt(1.0 - nu))) ** 2


def _rows_cover(rows, values, problems):
    got = sorted({float(r["omega2"]) for r in rows})
    if got != sorted(float(w) for w in values["omega2"]):
        problems.append(f"omega2 rows {got} differ from the config")


def check_frequency(rows, values):
    problems = []
    _rows_cover(rows, values, problems)
    for r in rows:
        total = sum(float(r[f"freq_{c}"]) for c in "REAH")
        if not abs(total - 1.0) <= 1e-12:
            problems.append(f"omega2={r['omega2']}: frequencies sum to {total!r}")
        if float(r["omega2"]) >= 0.46 and float(r["freq_R"]) != 0.0:
            problems.append(f"omega2={r['omega2']}: freq_R={r['freq_R']} outside the R-range")
    return problems


def check_haar_average(rows, values):
    problems = []
    _rows_cover(rows, values, problems)
    for r in rows:
        w2 = float(r["omega2"])
        pred1, pred2 = _depolarizing(OMEGA1, BETA1), _depolarizing(w2, BETA2)
        for col, pred in (("dE1", pred1), ("dE2", pred2), ("dE", pred1 + pred2)):
            mean, se = float(r[f"mean_{col}"]), float(r[f"se_{col}"])
            z = abs(mean - pred) / se if se > 0 else math.inf
            if not z <= 5.0:
                problems.append(f"omega2={w2}: mean_{col} is {z:.2f} standard errors off")
            if not math.isclose(float(r[f"pred_{col}"]), pred, rel_tol=1e-10):
                problems.append(f"omega2={w2}: pred_{col}={r[f'pred_{col}']} != {pred!r}")
        if r["class_of_mean"] != "H":
            problems.append(f"omega2={w2}: class_of_mean={r['class_of_mean']}")
    return problems


def check_noise(rows, values):
    problems = []
    _rows_cover(rows, values, problems)
    if len(rows) != len(values["omega2"]) * len(values["nu_values"]):
        problems.append(f"{len(rows)} noise rows")
    for r in rows:
        w2, nu = float(r["omega2"]), float(r["nu"])
        c1 = _white_c1(nu)
        for col, ideal in zip(("dE1", "dE2", "dE"), _canonical_ideal(w2)):
            got = float(r[f"{col}_white"])
            if not abs(got - c1 * ideal) <= 1e-12:
                problems.append(f"omega2={w2} nu={nu}: {col}_white={got!r} != c1*ideal")
        if r["class_white"] not in "REAH" or r["class_interf"] not in ("R", "E", "A", "H", "none"):
            problems.append(f"omega2={w2} nu={nu}: bad class")
    nu_c = nu_c_by_row(rows)
    if not any(v is None for v in nu_c.values()) or all(v is None for v in nu_c.values()):
        problems.append("nu_c is not both root-found and None across the rows")
    return problems


def nu_c_by_row(rows):
    out = {}
    for r in rows:
        v = float(r["nu_c_interf"])
        out[float(r["omega2"])] = None if math.isnan(v) else v
    return out


def check_nu_c_probe(rows, nu_c):
    """dE2_interf changes sign across nu_c +- 1e-3 on every root-found row."""
    de2 = {(float(r["omega2"]), float(r["nu"])): float(r["dE2_interf"]) for r in rows}
    problems = []
    for w2, v in nu_c.items():
        if v is None:
            continue
        lo, hi = _probe_points(v)
        if not de2.get((w2, lo), math.nan) * de2.get((w2, hi), math.nan) < 0.0:
            problems.append(f"omega2={w2}: dE2_interf keeps its sign across nu_c={v!r}")
    return problems


def _probe_points(v):
    return max(0.0, round(v - 1e-3, 9)), min(1.0, round(v + 1e-3, 9))


def check_tomography(rows, values):
    problems = []
    need = {"process_exact": 1 + len(values["omega2"]), "process_shots": 1 + len(values["omega2"]),
            "measurement_exact": 1, "measurement_shots": 6}
    floors = {"process_exact": 1 - 1e-9, "measurement_exact": 1 - 1e-9,
              "process_shots": 0.99, "measurement_shots": 0.95}
    for record, count in need.items():
        fids = [float(r["fidelity"]) for r in rows if r["record"] == record]
        if len(fids) != count:
            problems.append(f"{len(fids)} {record} rows, expected {count}")
        low = [f for f in fids if not f >= floors[record]]
        if low:
            problems.append(f"{record} fidelity {min(low)!r} below {floors[record]}")
    return problems


CHECKS = {
    "frequency": check_frequency,
    "haar-average": check_haar_average,
    "noise": check_noise,
    "tomography": check_tomography,
}


# ---------------------------------------------------------------- one run

def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


def _speed_factor(samples, a, b):
    """Mean of REFERENCE_PROBE_NS / probe over the samples stamped in [a, b]
    (the nearest sample if there is none): measured ns -> reference ns."""
    lo = bisect.bisect_left(samples, [a])
    hi = bisect.bisect_right(samples, [b, math.inf])
    inside = samples[lo:hi] or [min(samples[max(lo - 1, 0):lo + 1], key=lambda s: abs(s[0] - a))]
    return statistics.fmean(REFERENCE_PROBE_NS / ns for _, ns in inside)


def _raw_time(result):
    """Measured ns of an operation's work, net of the speed probe."""
    return result["end_ns"] - result["start_ns"] - result["probe_ns"]


def _op_time(result):
    """ns of an operation's work at the reference speed."""
    factor = _speed_factor(result["speed_samples"], result["start_ns"], result["end_ns"])
    return _raw_time(result) * factor


def _op_latencies(result):
    """Latencies at the reference speed: per basis, or of the whole command."""
    if "latencies_ns" not in result:
        return [_op_time(result)]
    samples = result["speed_samples"]
    return [ns * _speed_factor(samples, t - PROBE_WINDOW_NS, t + PROBE_WINDOW_NS)
            for t, ns in zip(result["basis_start_ns"], result["latencies_ns"])]


def _percentile(values, q):
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class WorkloadRun:
    """One workload at one seed: set-up probes, the body loop, checks, metrics."""

    def __init__(self, name, seed, seconds, trace):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.work = os.path.join(WORK, name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.ops = _operations(name, seed, self.work)
        self.t_start = time.perf_counter()
        self.runner = Runner(self.work, self.t_start + 175.0)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.hashes = {}  # op index -> sha256 of its first output
        self.env = {}

    def _problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)

    def setup(self):
        """Time from spawning a process until it has imported qmcool and resolved
        every config, as (scaled, raw) ns."""
        result, err = self.runner.run({"mode": "setup", "ops": self.ops})
        if result is None:
            self._problem(f"set-up process failed: {err}")
            return None
        self.env = {"numpy": result["numpy"], "backend": result["backend"]}
        raw = result["ready_ns"] - result["spawn_ns"] - result["probe_ns"]
        factor = _speed_factor(result["speed_samples"], result["spawn_ns"], result["ready_ns"])
        return raw * factor, raw

    def body(self, kind):
        """Run every operation once; returns per-op results (None for a crashed child)."""
        results = []
        for k, op in enumerate(self.ops):
            job = {key: op[key] for key in ("mode", "argv", "config", "seed", "out") if key in op}
            job.update(trace=kind == "traced", memprobe=kind == "memprobe")
            if os.path.exists(op["out"]):
                os.remove(op["out"])
            result, err = self.runner.run(job)
            n = op["values"]["samples"] if op["mode"] == "basis" else 1
            self.attempted += n
            if result is None:
                self.failed += n
                self._problem(f"{op['command']} ({kind}) failed: {err}")
                results.append(None)
                continue
            failed = result["failed"]
            for text in result.get("problems", []):
                self._problem(f"{op['command']}: {text}")
            if "error" in result:
                self._problem(f"{op['command']}: {result['error'].strip()[-300:]}")
            if result.get("rc", 0) != 0:
                self._problem(f"{op['command']} ({kind}) exited {result['rc']}: {err}")
            elif os.path.exists(op["out"]):
                failed = max(failed, self._check_output(k, op, kind, n))
            else:
                failed = n
                self._problem(f"{op['command']} wrote no output")
            self.failed += failed
            result["out_bytes"] = os.path.getsize(op["out"]) if os.path.exists(op["out"]) else 0
            results.append(result)
        return results

    def _check_output(self, k, op, kind, n):
        """Output checks of one operation; returns the number of failed operations."""
        digest = _sha(op["out"])
        first = self.hashes.setdefault(k, (digest, kind))
        problems = []
        if digest != first[0]:
            problems.append(f"output of a {kind} body differs from the first ({first[1]}) body "
                            "with the same seed")
        if op["mode"] == "cli":
            rows = _read_csv(op["out"])
            op["rows"] = len(rows)
            problems += CHECKS[op["command"]](rows, op["values"])
            if op["command"] == "noise" and "nu_c" not in op:
                op["nu_c"] = nu_c_by_row(rows)
                problems += self._probe_nu_c(op)
        for text in problems:
            self._problem(f"{op['command']}: {text}")
        return n if problems else 0

    def _probe_nu_c(self, op):
        """Re-run noise at nu_c +- 1e-3 on the root-found rows (untimed)."""
        rows = {w2: v for w2, v in op["nu_c"].items() if v is not None}
        if not rows:
            return []
        nus = sorted({p for v in rows.values() for p in _probe_points(v)})
        values = {"omega2": tuple(rows), "nu_values": tuple(nus)}
        config = os.path.join(self.work, "probe.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(_config_text(values))
        out = os.path.join(self.work, "probe.csv")
        job = {"mode": "cli", "argv": ["noise", "--config", config, "--seed", str(self.seed),
                                       "--out", out]}
        result, err = self.runner.run(job)
        if result is None or result["rc"] != 0:
            return [f"nu_c probe failed: {err}"]
        return check_nu_c_probe(_read_csv(out), op["nu_c"])

    def loop(self, kinds, least, setups=None):
        """Bodies until the run time is up; a set-up probe before each, if asked."""
        bodies = {kind: [] for kind in kinds}
        t0 = time.perf_counter()
        k = 0
        while True:
            kind = kinds[k % len(kinds)]
            if setups is not None:
                setups.append(self.setup())
            bodies[kind].append(self.body(kind))
            k += 1
            now = time.perf_counter()
            done = now - t0 >= self.seconds and all(len(b) >= least for b in bodies.values())
            if done or now - self.t_start >= RUN_BUDGET_S:
                return bodies

    def run(self):
        if self.setup() is None:  # warm-up: writes bytecode, records the environment
            return None
        if not self.trace:
            # set-up probes are spread over the run, so their median sees its whole span
            setups = []
            bodies = self.loop(["plain"], MIN_BODIES, setups)
            while len(setups) < SETUP_REPEATS:
                setups.append(self.setup())
            if None in setups:
                return None
            return self._end_to_end(setups, bodies["plain"])
        bodies = self.loop(["plain", "traced"], MIN_TRACE_BODIES)
        traced = [b for b in bodies["traced"] if all(r is not None for r in b)]
        mem = None
        if traced and _merge(traced[0])["spans"].get("accel.cycle_energy_samples", {}).get("calls"):
            mem = self.body("memprobe")
        return self._per_layer(bodies["plain"], traced, mem)

    # ------------------------------------------------------------ metrics

    def _end_to_end(self, setups, bodies):
        good = [b for b in bodies if all(r is not None for r in b)]
        if not good:
            return None
        walls = [sum(_op_time(r) for r in b) / 1e9 for b in good]
        rss = [max(r["maxrss_kb"] for r in b) * 1024 / 1e6 for b in good]
        # latencies per kind of operation (one CLI command, or a basis); the
        # slowest kind sets the reported percentiles
        by_kind = [[] for _ in self.ops]
        for b in good:
            for k, r in enumerate(b):
                by_kind[k].extend(_op_latencies(r))
        raw_walls = [sum(_raw_time(r) for r in b) / 1e9 for b in good]
        return {
            "setup_s": _median([scaled for scaled, _ in setups]) / 1e9,
            "wall_s": _median(walls),
            "peak_rss_mb": _median(rss),
            "op_ms_p50": max(_percentile(x, 0.5) for x in by_kind) / 1e6,
            "op_ms_p90": max(_percentile(x, 0.9) for x in by_kind) / 1e6,
        }, {"bodies": len(good), "ops_per_kind": [len(x) for x in by_kind],
            "raw_wall_s": _median(raw_walls),
            "raw_setup_s": _median([raw for _, raw in setups]) / 1e9,
            "body_wall_s": walls, "body_raw_wall_s": raw_walls,
            "probe_us": _median([ns for b in good for r in b
                                 for _, ns in r["speed_samples"]]) / 1e3}

    def _per_layer(self, plain, traced, mem):
        plain = [b for b in plain if all(r is not None for r in b)]
        if not traced or not plain:
            return None
        per_body = [self._layer_values(b) for b in traced]
        values = {name: _median([v[name] for v in per_body]) for name in per_body[0]}
        plain_wall = _median([sum(_op_time(r) for r in b) for b in plain])
        traced_wall = _median([sum(_op_time(r) for r in b) for b in traced])
        values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        peak = max((r["mem"]["peak_bytes"] for r in mem or [] if r), default=0)
        values["accel.peak_alloc_mb"] = peak / 1e6
        return values, {"bodies": len(traced), "plain_bodies": len(plain)}

    def _layer_values(self, body):
        merged = _merge(body)
        spans = merged["spans"]

        def get(span, stat):
            return spans.get(span, {}).get(stat, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        # self times plus the glue outside every span add up to the traced wall
        # time only if no span's time is counted twice or lost
        wall_ns = sum(r["end_ns"] - r["start_ns"] for r in body)  # spans include the probe
        self_ns = sum(s["self_ns"] for s in spans.values())
        glue_ns = wall_ns - merged["top_ns"]
        if glue_ns < 0 or not abs(self_ns + glue_ns - wall_ns) <= 0.1 * wall_ns:
            self._problem(f"span self times {self_ns} ns + glue {glue_ns} ns do not add up to "
                          f"the traced wall time {wall_ns} ns")
        v = {}
        g = "accel.ginibre_batch"
        v[f"{g}.calls"] = get(g, "calls")
        v[f"{g}.samples"] = get(g, "items")
        v[f"{g}.self_s"] = get(g, "self_ns") / 1e9
        v[f"{g}.ns_per_sample"] = ratio(get(g, "self_ns"), get(g, "items"))
        v[f"{g}.bytes_out"] = get(g, "items") * GINIBRE_BYTES
        v[f"{g}.unique_frac"] = ratio(get(g, "distinct"), get(g, "items"))
        for name in ("accel.haar_from_ginibre", "accel.cycle_energies_from_ginibre"):
            v[f"{name}.self_s"] = get(name, "self_ns") / 1e9
            v[f"{name}.ns_per_sample"] = ratio(get(name, "self_ns"), get(name, "items"))
        v["engine.classify.ns_per_call"] = ratio(get("engine.classify", "self_ns"),
                                                 get("engine.classify", "calls"))
        v["engine.critical_visibility.de2_evals"] = merged["nested"].get(
            "measure.hom_noisy_channel<engine.critical_visibility", 0)
        p = "optics.projector_train_operators"
        v[f"{p}.unique_frac"] = ratio(get(p, "distinct"), get(p, "calls"))
        v["qcore.validate_density.calls_per_cycle"] = ratio(
            merged["nested"].get("qcore.validate_density<engine.run_cycle", 0),
            get("engine.run_cycle", "calls"))
        for name, _, _ in PER_LAYER:
            span, stat = name.rsplit(".", 1)
            if stat == "calls":
                v.setdefault(name, get(span, "calls"))
            elif stat == "self_s":
                v.setdefault(name, get(span, "self_ns") / 1e9)
        cli_ops = [(op, r) for op, r in zip(self.ops, body) if op["mode"] == "cli"]
        v["cli.emit.bytes"] = sum(r["out_bytes"] for _, r in cli_ops)
        v["cli.emit.rows"] = sum(op.get("rows", 0) for op, _ in cli_ops)
        v["trace.self_frac"] = ratio(self_ns, wall_ns)
        return v


def _merge(body):
    """Sum the span totals of a body's operations (each op is its own process)."""
    spans, nested, top = {}, {}, 0
    for result in body:
        trace = result["trace"]
        top += trace["top_ns"]
        for name, stats in trace["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value
        for key, value in trace["nested"].items():
            nested[key] = nested.get(key, 0) + value
    return {"spans": spans, "nested": nested, "top_ns": top}


# ---------------------------------------------------------------- reporting

def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "max_processes_at_once": 1, "thread_vars": "=1 ".join(THREAD_VARS) + "=1"}


def run_one(name, seed, seconds, trace):
    run = WorkloadRun(name, seed, seconds, trace)
    out = run.run()
    specs = PER_LAYER if trace else END_TO_END
    metrics = {}
    info = {}
    if out is not None:
        values, info = out
        metrics = {spec[0]: {"value": values[spec[0]], "unit": spec[1]} for spec in specs}
    attempted = max(run.attempted, 1)
    failed = run.failed if out is not None else attempted
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": metrics,
        "info": dict(info, env=run.env),
        "problems": run.problems,
    }


def _print_result(res):
    w = res["workload"]
    for name, m in res["metrics"].items():
        print(f"{w:<13} {name:<50} {m['value']:>16.6g} {m['unit']}")
    print(f"{w:<13} {'fail_frac':<50} {res['fail_frac']:>16.6g} ratio "
          f"({res['failed']}/{res['attempted']} operations)")
    print(f"{w:<13} # {json.dumps(res['info'])}")
    for text in res["problems"]:
        print(f"{w:<13} ! {text}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the results, with the environment, as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "qmcool", "__init__.py")):
        print(f"no qmcool sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = environment()
    print("# env " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_one(name, args.seed, args.seconds, bool(args.trace))
        _print_result(res)
        results.append(res)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "args": vars(args), "results": results}, fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        summary = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": m
                        for r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
