"""Batch front-end: config ingestion, experiment sweeps, CSV emission.

Commands
--------
sweep-omega    canonical-basis cycle per omega2: energies, class, regime
frequency      class frequencies over Haar-rotated bases per omega2
noise          white-noise and interference-noise energy curves + nu_c
haar-average   Haar-mean energy triples vs the depolarizing prediction
tomography     process/measurement tomography fidelities and operator entries
hologram       phase profile of the thermalizing hologram for one bath

Every command is a pure function of (config file, flags): identical inputs
produce byte-identical CSV, including the header comment, which carries the
package version and a hash of the fully resolved configuration.  Exit codes:
0 success, 2 configuration error or unwritable --out, 3 internal invariant violation.
``frequency`` and ``haar-average`` share one Haar draw across their omega2 rows.
``sweep-omega``'s ``ratio`` cell prints ``inf`` when omega2/omega1 exceeds the
double range (e.g. omega1 = 1e-320); such a config is valid and exits 0.

Config files are flat ``key = value`` text; unknown keys are rejected.  Flags
win over file values.  Keys (``_KEYS``): beta1, beta2, omega1, omega2 (comma
list), samples, shots, seed, eps, out, nu_values (comma list), hologram_beta.
The engine's types own the ranges (BathSpec, QubitSpec, EngineConfig, check_int);
the CLI checks eps > 0 and nu in [0, 1].  A config error names its key and value.
"""

import argparse
import functools
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._accel import STREAM_VERSION, check_int
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
    _chis_from_kraus,
    _effect_fidelities,
    _effects_of,
    _fidelities,
    _measurement_tomographies,
    _process_tomographies,
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
        return EngineConfig.from_values(self.omega1, omega2, self.beta1, self.beta2)


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
        return int(str(raw), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}")


def _parse_float_list(raw, key):
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key} must be a non-empty comma-separated list, got {raw!r}")
    return tuple(_parse_float(p, key) for p in parts)


# each RunConfig key: its parser, and its value when neither the file nor a flag sets it
_KEYS = {
    "beta1": (_parse_float, 0.4),
    "beta2": (_parse_float, 1.0),
    "omega1": (_parse_float, 1.02),
    "omega2": (_parse_float_list, DEFAULT_OMEGA2),
    "samples": (_parse_int, None),  # hashed unset; the Haar commands take DEFAULT_SAMPLES
    "shots": (_parse_int, None),
    "seed": (_parse_int, None),
    "eps": (_parse_float, 1e-12),
    "out": (lambda raw, key: str(raw), None),
    "nu_values": (_parse_float_list, DEFAULT_NU),
    "hologram_beta": (_parse_float, None),  # hologram takes beta2
}
# the keys a flag sets, each with its argparse type, in the order of ``qmcool -h``
_FLAGS = {"seed": int, "samples": int, "shots": int, "eps": float, "out": str}
# the engine type that checks each value of a float key
_SPECS = {"beta1": BathSpec, "beta2": BathSpec, "omega1": QubitSpec, "omega2": QubitSpec,
          "hologram_beta": BathSpec}


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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _each(value):
    """A key's values: a list's own, none if it is unset, else the one."""
    return value if isinstance(value, tuple) else () if value is None else (value,)


def resolve_config(args):
    """Merge unset values, config file, and flags (flags win) into a RunConfig that the
    engine's types accept; a ValidationError of theirs is a ConfigError naming the key."""
    raw = parse_config_file(args.config) if args.config else {}
    raw.update((key, getattr(args, key)) for key in _FLAGS if getattr(args, key, None) is not None)
    cfg = RunConfig(**{key: parse(raw[key], key) if key in raw else unset
                       for key, (parse, unset) in _KEYS.items()})
    for key, spec in _SPECS.items():
        for value in _each(getattr(cfg, key)):
            try:
                spec(value)
            except ValidationError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    try:  # each of these messages names its keys and values
        cfg.engine_config(cfg.omega2[0])  # beta1 < beta2, once every value passed its spec
        for key, low in (("samples", 1), ("shots", 1), ("seed", 0)):
            for value in _each(getattr(cfg, key)):
                check_int(value, key, low)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.eps <= 0:
        raise ConfigError(f"eps must be positive, got {cfg.eps}")
    if any(not 0.0 <= nu <= 1.0 for nu in cfg.nu_values):
        raise ConfigError(f"nu_values must lie in [0, 1], got {cfg.nu_values}")
    return cfg


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


@functools.lru_cache(maxsize=None)
def _row_format(types):
    """The ``%`` format of a row with cells of these types, and the cells to pass through
    _fmt first: ``%.12g`` (CPython's ``format(c, ".12g")``) for a float, else ``%s``."""
    fmt = ",".join("%.12g" if t is float else "%s" for t in types)
    return fmt, tuple(i for i, t in enumerate(types) if t is not float and t is not str)


def _config_hash(cfg, command):
    parts = [f"command={command}"]
    for key in sorted(_KEYS.keys() - {"out"}):
        parts.append(f"{key}={','.join(map(repr, _each(getattr(cfg, key))))}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _emit(cfg, command, comments, header, rows):
    lines = [f"# qmcool {__version__} command={command} config_sha256={_config_hash(cfg, command)}"]
    lines.extend(f"# {c}" for c in comments)
    lines.append(",".join(header))
    for row in rows:
        fmt, others = _row_format(tuple(map(type, row)))
        if others:
            row = list(row)
            for i in others:
                row[i] = _fmt(row[i])
        lines.append(fmt % tuple(row))
    text = "\n".join(lines) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {cfg.out}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


def _require_seed(cfg, command):
    if cfg.seed is None:
        raise ConfigError(f"{command} needs --seed")


def _haar_run(cfg, command, sweep):
    """A Haar command's one draw, ``sweep(engines, samples, seed, eps)``, and its comments."""
    _require_seed(cfg, command)
    samples = cfg.samples if cfg.samples is not None else DEFAULT_SAMPLES
    engines = [cfg.engine_config(w2) for w2 in cfg.omega2]
    comments = [f"samples={samples} per omega2, same seed shared across rows", _STREAM]
    return sweep(engines, samples, cfg.seed, eps=cfg.eps), comments


def cmd_sweep_omega(cfg):
    rows = []
    for w2 in cfg.omega2:
        econf = cfg.engine_config(w2)
        try:
            report = run_cycle(econf, eps=cfg.eps)
        except (ValidationError, SecondLawViolation) as exc:
            raise type(exc)(f"omega2 = {w2!r}: {exc}") from exc
        rows.append((w2, w2 / cfg.omega1, report.dE1, report.dE2, report.dE,
                     report.classification, regime(econf).value))
    header = ("omega2", "ratio", "dE1", "dE2", "dE", "class", "regime")
    return _emit(cfg, "sweep-omega", [], header, rows)


def cmd_frequency(cfg):
    sweep, comments = _haar_run(cfg, "frequency", frequency_sweep)
    rows = [(w2, *(v for label in "REAH" for v in (freqs[label].frequency, freqs[label].stderr)))
            for w2, freqs in zip(cfg.omega2, sweep)]
    header = ("omega2", *(f"{stat}_{label}" for label in "REAH" for stat in ("freq", "se")))
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
    header = ("omega2", "nu", "dE1_white", "dE2_white", "dE_white", "class_white",
              "dE1_interf", "dE2_interf", "dE_interf", "class_interf", "nu_c_interf")
    return _emit(cfg, "noise", [HOM_MODEL_NOTE, "nu_c closed form"], header, rows)


def cmd_haar_average(cfg):
    reports, comments = _haar_run(cfg, "haar-average", haar_average_report)
    rows = [(w2, rep.mean_dE1, rep.stderr_dE1, rep.mean_dE2, rep.stderr_dE2, rep.mean_dE,
             rep.stderr_dE, rep.predicted_dE1, rep.predicted_dE2, rep.predicted_dE,
             rep.classification)
            for w2, rep in zip(cfg.omega2, reports)]
    header = ("omega2", "mean_dE1", "se_dE1", "mean_dE2", "se_dE2", "mean_dE", "se_dE",
              "pred_dE1", "pred_dE2", "pred_dE", "class_of_mean")
    return _emit(cfg, "haar-average", comments, header, rows)


def cmd_tomography(cfg):
    targets = [(cfg.omega1, cfg.beta1)] + [(w2, cfg.beta2) for w2 in cfg.omega2]
    labels = [f"thermal(omega={_fmt(w)} beta={_fmt(beta)})" for w, beta in targets]
    channels = [thermalizing_channel(QubitSpec(w), BathSpec(beta)) for w, beta in targets]
    analytic = _chis_from_kraus(np.stack([channel.operators for channel in channels]))
    basis = canonical_basis()
    bases = [("canonical", basis)]
    modes = [("exact", None)]
    if cfg.shots is not None:
        _require_seed(cfg, "tomography with --shots")
        haar = haar_unitaries(HaarSampler(cfg.seed), 5)
        bases += [(f"haar_{i}", rotate_basis(u, basis)) for i, u in enumerate(haar)]
        modes.append(("shots", cfg.shots))
    process, measurement = [], []
    for mode, shots in modes:
        cells = ("", "") if shots is None else (shots, cfg.seed)
        chis = _process_tomographies(channels, labels, shots, cfg.seed)
        if shots is None:
            chi = chis[0]  # the first exact chi, printed entry by entry
        process.append([(f"process_{mode}", label, "", "", "", "", *cells, fid)
                        for label, fid in zip(labels, _fidelities(chis, analytic, "chi"))])
        measured = bases[:1] if shots is None else bases
        names = [name for name, _ in measured]
        projectors = np.stack([_effects_of(bas) for _, bas in measured])
        est = _measurement_tomographies(projectors, names, shots, cfg.seed)
        fids = _effect_fidelities(est.reshape(-1, 4, 4), projectors.reshape(-1, 4, 4))
        measurement += [(f"measurement_{mode}", name, "", "", "", "", *cells, fid) for name, fid
                        in zip(names, np.mean(np.reshape(fids, (-1, 4)), axis=1).tolist())]
    rows = [row for target in zip(*process) for row in target] + measurement
    rows.extend(("chi_entry", labels[0], r, c, chi[r, c].real, chi[r, c].imag, "", "", "")
                for r in range(4) for c in range(4))
    header = ("record", "label", "row", "col", "re", "im", "shots", "seed", "fidelity")
    return _emit(cfg, "tomography", [] if cfg.shots is None else [_STREAM], header, rows)


def cmd_hologram(cfg):
    beta = cfg.hologram_beta if cfg.hologram_beta is not None else cfg.beta2
    try:
        rows = [(z, phase) for z, phase in solve_hologram(BathSpec(beta)).rows()]
    except (ValidationError, SecondLawViolation) as exc:
        raise type(exc)(f"beta = {beta!r}: {exc}") from exc
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
    # one flat parser: every command takes the same options
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="flat key = value config file")
    for key, kind in _FLAGS.items():
        parser.add_argument(f"--{key}", type=kind)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, SecondLawViolation) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
