"""Batch front-end: config ingestion, experiment sweeps, CSV emission.

Subcommands
-----------
sweep-omega    canonical-basis cycle per omega2: energies, class, regime
frequency      class frequencies over Haar-rotated bases per omega2
noise          white-noise and interference-noise energy curves + nu_c
haar-average   Haar-mean energy triples vs the depolarizing prediction
tomography     process/measurement tomography fidelities and operator entries
hologram       phase profile of the thermalizing hologram for one bath

Every command is a pure function of (config file, flags): identical inputs
produce byte-identical CSV, including the header comment, which carries the
package version and a hash of the fully resolved configuration.  Exit codes:
0 success, 2 configuration error, 3 internal invariant violation.
``frequency`` and ``haar-average`` share one Haar draw across their omega2 rows.
``sweep-omega``'s ``ratio`` cell prints ``inf`` when omega2/omega1 exceeds the
double range (e.g. omega1 = 1e-320); such a config is valid and exits 0.

Config files are flat ``key = value`` text; unknown keys are rejected.  Flags
win over file values.  Keys: beta1, beta2, omega1, omega2 (comma list),
samples, shots, seed, eps, out, nu_values (comma list), hologram_beta.
"""

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from ._accel import INT64_MAX, STREAM_VERSION
from .engine import (
    CLASS_LABELS,
    EngineConfig,
    _class_codes,
    frequency_sweep,
    haar_average_report,
    noise_sweep,
    regime,
    run_cycle,
)
from .errors import ConfigError, SecondLawViolation, ValidationError
from .measure import HaarSampler, canonical_basis, haar_unitaries, rotate_basis
from .optics import solve_hologram
from .thermo import BathSpec, QubitSpec, thermalizing_channel
from .tomo import (
    chi_from_kraus,
    effect_fidelity,
    measurement_tomography,
    process_fidelity,
    process_tomography,
)

DEFAULT_OMEGA2 = (0.02, 0.06, 0.14, 0.18, 0.46, 0.86, 1.10)
DEFAULT_NU = tuple(round(0.05 * k, 2) for k in range(1, 21))
DEFAULT_SAMPLES = 10000  # Haar samples of frequency and haar-average

HOM_MODEL_NOTE = (
    "interference model: per projector, weight nu on the ideal interfering train "
    "plus weight (1-nu)/4 on each distinguishable-photon coincidence train "
    "(both-transmit and both-reflect), branches scaled by 1/eta_k^2, "
    "renormalized by total detected weight"
)
_STREAM = f"stream={STREAM_VERSION}"  # a comment line of every output that reads the Haar stream


@dataclass(frozen=True)
class RunConfig:
    beta1: float
    beta2: float
    omega1: float
    omega2: tuple
    samples: int
    shots: int
    seed: int
    eps: float
    out: str
    nu_values: tuple
    hologram_beta: float

    def engine_config(self, omega2):
        try:
            return EngineConfig.from_values(self.omega1, omega2, self.beta1, self.beta2)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def _parse_float(raw, key):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _parse_int(raw, key):
    try:
        value = int(str(raw), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}")
    return value


def _parse_float_list(raw, key):
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} must be a non-empty comma-separated list")
    return tuple(_parse_float(p, key) for p in parts)


def parse_config_file(path):
    """Flat key = value file; '#' starts a comment; unknown keys rejected."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(args):
    """Merge defaults, config file, and flags (flags win) into a RunConfig."""
    raw = {}
    if args.config:
        raw.update(parse_config_file(args.config))
    for key in ("seed", "samples", "shots", "eps", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag

    beta1 = _parse_float(raw.get("beta1", 0.4), "beta1")
    beta2 = _parse_float(raw.get("beta2", 1.0), "beta2")
    omega1 = _parse_float(raw.get("omega1", 1.02), "omega1")
    omega2 = (
        _parse_float_list(raw["omega2"], "omega2") if "omega2" in raw else DEFAULT_OMEGA2
    )
    samples = _parse_int(raw["samples"], "samples") if raw.get("samples") is not None else None
    shots = _parse_int(raw["shots"], "shots") if raw.get("shots") is not None else None
    seed = _parse_int(raw["seed"], "seed") if raw.get("seed") is not None else None
    eps = _parse_float(raw.get("eps", 1e-12), "eps")
    out = str(raw["out"]) if raw.get("out") is not None else None
    nu_values = (
        _parse_float_list(raw["nu_values"], "nu_values") if "nu_values" in raw else DEFAULT_NU
    )
    hologram_beta = (
        _parse_float(raw["hologram_beta"], "hologram_beta")
        if raw.get("hologram_beta") is not None
        else None
    )

    if not (0 < beta1 < beta2):
        raise ConfigError(f"need 0 < beta1 < beta2, got beta1={beta1}, beta2={beta2}")
    if omega1 <= 0:
        raise ConfigError(f"omega1 must be positive, got {omega1}")
    if not omega2:
        raise ConfigError("omega2 list is empty")
    if any(w <= 0 for w in omega2):
        raise ConfigError(f"omega2 values must be positive, got {omega2}")
    if samples is not None and not 1 <= samples <= INT64_MAX:
        raise ConfigError(f"samples must lie in [1, 2**63 - 1], got {samples}")
    if shots is not None and not 1 <= shots <= INT64_MAX:
        raise ConfigError(f"shots must lie in [1, 2**63 - 1], got {shots}")
    if seed is not None and not 0 <= seed <= INT64_MAX:
        raise ConfigError(f"seed must lie in [0, 2**63 - 1], got {seed}")
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if any(not 0.0 <= nu <= 1.0 for nu in nu_values):
        raise ConfigError(f"nu_values must lie in [0, 1], got {nu_values}")
    if hologram_beta is not None and hologram_beta <= 0:
        raise ConfigError(f"hologram_beta must be positive, got {hologram_beta}")

    cfg = RunConfig(beta1, beta2, omega1, omega2, samples, shots, seed, eps, out, nu_values,
                    hologram_beta)
    for w2 in omega2:
        cfg.engine_config(w2)  # surface invalid engine parameters as exit 2
    return cfg


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _config_hash(cfg, command):
    parts = [f"command={command}"]
    for key in sorted(_CONFIG_KEYS):
        if key == "out":
            continue
        value = getattr(cfg, key)
        if isinstance(value, tuple):
            text = ",".join(repr(float(v)) for v in value)
        elif value is None:
            text = ""
        else:
            text = repr(value)
        parts.append(f"{key}={text}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _emit(cfg, command, comments, header, rows):
    lines = [f"# qmcool {__version__} command={command} config_sha256={_config_hash(cfg, command)}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format(c, ".12g") if type(c) is float else _fmt(c) for c in row))
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _require_seed(cfg, command):
    if cfg.seed is None:
        raise ConfigError(f"{command} needs --seed")


def cmd_sweep_omega(cfg):
    rows = []
    for w2 in cfg.omega2:
        econf = cfg.engine_config(w2)
        try:
            report = run_cycle(econf, eps=cfg.eps)
        except (ValidationError, SecondLawViolation) as exc:
            raise type(exc)(f"omega2 = {w2!r}: {exc}") from exc
        rows.append(
            (
                w2,
                w2 / cfg.omega1,
                report.dE1,
                report.dE2,
                report.dE,
                report.classification,
                regime(econf).value,
            )
        )
    header = ("omega2", "ratio", "dE1", "dE2", "dE", "class", "regime")
    return _emit(cfg, "sweep-omega", [], header, rows)


def cmd_frequency(cfg):
    _require_seed(cfg, "frequency")
    samples = cfg.samples if cfg.samples is not None else DEFAULT_SAMPLES
    engines = [cfg.engine_config(w2) for w2 in cfg.omega2]
    rows = []
    for w2, freqs in zip(cfg.omega2, frequency_sweep(engines, samples, cfg.seed, eps=cfg.eps)):
        row = [w2]
        for label in ("R", "E", "A", "H"):
            row.extend([freqs[label].frequency, freqs[label].stderr])
        rows.append(tuple(row))
    header = (
        "omega2",
        "freq_R",
        "se_R",
        "freq_E",
        "se_E",
        "freq_A",
        "se_A",
        "freq_H",
        "se_H",
    )
    comments = [f"samples={samples} per omega2, same seed shared across rows", _STREAM]
    return _emit(cfg, "frequency", comments, header, rows)


def cmd_noise(cfg):
    triples, nu_cs = noise_sweep([cfg.engine_config(w2) for w2 in cfg.omega2], cfg.nu_values)
    # every white and interference triple classified in one pass; "none" where
    # classify would raise (codes -2 and -1 index the two "none"s)
    codes = _class_codes(*np.moveaxis(triples, -1, 0), cfg.eps)
    labels = np.array([*CLASS_LABELS, "none", "none"])[codes].tolist()
    rows = [(w2, nu, *white, label_w, *interf, label_i, math.nan if nu_c is None else nu_c)
            for w2, nu_c, w2_rows, w2_labels in zip(cfg.omega2, nu_cs, triples.tolist(), labels)
            for nu, (white, interf), (label_w, label_i) in zip(cfg.nu_values, w2_rows, w2_labels)]
    header = (
        "omega2",
        "nu",
        "dE1_white",
        "dE2_white",
        "dE_white",
        "class_white",
        "dE1_interf",
        "dE2_interf",
        "dE_interf",
        "class_interf",
        "nu_c_interf",
    )
    return _emit(cfg, "noise", [HOM_MODEL_NOTE, "nu_c closed form"], header, rows)


def cmd_haar_average(cfg):
    _require_seed(cfg, "haar-average")
    samples = cfg.samples if cfg.samples is not None else DEFAULT_SAMPLES
    engines = [cfg.engine_config(w2) for w2 in cfg.omega2]
    rows = []
    for w2, rep in zip(cfg.omega2, haar_average_report(engines, samples, cfg.seed, eps=cfg.eps)):
        rows.append(
            (
                w2,
                rep.mean_dE1,
                rep.stderr_dE1,
                rep.mean_dE2,
                rep.stderr_dE2,
                rep.mean_dE,
                rep.stderr_dE,
                rep.predicted_dE1,
                rep.predicted_dE2,
                rep.predicted_dE,
                rep.classification,
            )
        )
    header = (
        "omega2",
        "mean_dE1",
        "se_dE1",
        "mean_dE2",
        "se_dE2",
        "mean_dE",
        "se_dE",
        "pred_dE1",
        "pred_dE2",
        "pred_dE",
        "class_of_mean",
    )
    comments = [f"samples={samples} per omega2, same seed shared across rows", _STREAM]
    return _emit(cfg, "haar-average", comments, header, rows)


def _mean_effect_fidelity(effects, basis):
    return float(np.mean([effect_fidelity(e, basis.projector(k)) for k, e in enumerate(effects)]))


def cmd_tomography(cfg):
    if cfg.shots is not None and cfg.seed is None:
        raise ConfigError("tomography with --shots needs --seed")
    targets = [(cfg.omega1, cfg.beta1)] + [(w2, cfg.beta2) for w2 in cfg.omega2]
    rows, exact_chis = [], []
    for w, beta in targets:
        channel = thermalizing_channel(QubitSpec(w), BathSpec(beta))
        analytic = chi_from_kraus(channel)
        chi = process_tomography(channel)
        exact_chis.append(chi)
        rows.append(
            ("process_exact", f"thermal(omega={_fmt(w)} beta={_fmt(beta)})", "", "", "", "",
             "", "", process_fidelity(chi, analytic))
        )
        if cfg.shots is not None:
            chi_s = process_tomography(channel, shots=cfg.shots, seed=cfg.seed)
            rows.append(
                ("process_shots", f"thermal(omega={_fmt(w)} beta={_fmt(beta)})", "", "", "", "",
                 cfg.shots, cfg.seed, process_fidelity(chi_s, analytic))
            )
    basis = canonical_basis()
    fid = _mean_effect_fidelity(measurement_tomography(basis), basis)
    rows.append(("measurement_exact", "canonical", "", "", "", "", "", "", fid))
    if cfg.shots is not None:
        haar = haar_unitaries(HaarSampler(cfg.seed), 5)
        bases = [("canonical", basis)] + [(f"haar_{i}", rotate_basis(u, basis))
                                          for i, u in enumerate(haar)]
        for label, bas in bases:
            est = measurement_tomography(bas, shots=cfg.shots, seed=cfg.seed)
            fid = _mean_effect_fidelity(est, bas)
            rows.append(("measurement_shots", label, "", "", "", "", cfg.shots, cfg.seed, fid))
    # operator entries of the first exact chi for regression snapshots
    chi = exact_chis[0]
    for r in range(chi.shape[0]):
        for c in range(chi.shape[1]):
            rows.append(
                ("chi_entry", f"thermal(omega={_fmt(targets[0][0])} beta={_fmt(targets[0][1])})",
                 r, c, chi[r, c].real, chi[r, c].imag, "", "", "")
            )
    header = ("record", "label", "row", "col", "re", "im", "shots", "seed", "fidelity")
    return _emit(cfg, "tomography", [] if cfg.shots is None else [_STREAM], header, rows)


def cmd_hologram(cfg):
    beta = cfg.hologram_beta if cfg.hologram_beta is not None else cfg.beta2
    holo = solve_hologram(BathSpec(beta))
    rows = [(z, phase) for z, phase in holo.rows()]
    return _emit(cfg, "hologram", [f"beta={_fmt(beta)}"], ("z", "phase_rad"), rows)


_COMMANDS = {
    "sweep-omega": cmd_sweep_omega,
    "frequency": cmd_frequency,
    "noise": cmd_noise,
    "haar-average": cmd_haar_average,
    "tomography": cmd_tomography,
    "hologram": cmd_hologram,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmcool",
        description="Two-qubit measurement-cooling engine simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, SecondLawViolation) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
