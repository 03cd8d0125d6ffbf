"""Command-line interface: commands, config handling, exit codes, output."""

import argparse
import contextlib
import hashlib
import io
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmcool import _accel, cli, engine
from qmcool.errors import SecondLawViolation, ValidationError

from helpers import fmt_cell, looped_tomography_rows

GRID_14 = ("omega2 = 0.02, 0.06, 0.10, 0.14, 0.18, 0.26, 0.34, 0.40, 0.46, 0.60, 0.86, 1.00, "
           "1.10, 1.40\n")


# SHA-256 of the default sweep-omega and noise CSVs and of noise on 14 omega2 x 100 nu.
# A change that moves a cell of these updates the pin and lists the cells it moves.
NU_100 = "nu_values = " + ", ".join(repr(k / 100) for k in range(1, 101)) + "\n"
PINNED_CSVS = [
    (["sweep-omega"], None, "81971d24a310f2329cfff9668bbb411e3c87cfef7befcf7eea8862535801b6b1"),
    (["noise"], None, "bebf0e68c3370cf812db2fe6fa10a155c2cb3033c50ffefad075d34e11ee1323"),
    (["noise"], GRID_14 + NU_100, "92f46b689422f28e2b87457368dbea7b5e26f0f27ac227eb58df4a52b21b1e3d"),
]


def _read(path):
    return path.read_text(encoding="utf-8")


def _rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_sweep_omega_default_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-omega", "--out", str(out)]) == 0
    header, rows = _rows(_read(out))
    assert header == ["omega2", "ratio", "dE1", "dE2", "dE", "class", "regime"]
    assert [r["class"] for r in rows] == ["R", "R", "R", "R", "E", "E", "A"]
    assert [r["regime"] for r in rows] == [
        "R-range", "R-range", "R-range", "R-range", "E-range", "E-range", "A-range"]
    assert float(rows[3]["dE1"]) == pytest.approx(0.028421956860624167, abs=1e-12)
    assert float(rows[3]["dE2"]) == pytest.approx(-0.0050156394459924996, abs=1e-12)


@pytest.mark.parametrize("argv, config, digest", PINNED_CSVS)
def test_canonical_csvs_are_pinned(tmp_path, argv, config, digest):
    if config is not None:
        conf = tmp_path / "c.ini"
        conf.write_text(config)
        argv = argv + ["--config", str(conf)]
    out = tmp_path / "o.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sweep_omega_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep-omega", "--out", str(a)]) == 0
    assert cli.main(["sweep-omega", "--out", str(b)]) == 0
    assert _read(a) == _read(b)


def test_sweep_omega_header_line(tmp_path):
    out = tmp_path / "sweep.csv"
    cli.main(["sweep-omega", "--out", str(out)])
    first = _read(out).splitlines()[0]
    assert first.startswith("# qmcool 0.1.0 command=sweep-omega config_sha256=")
    assert len(first.rsplit("=", 1)[1]) == 64


def test_sweep_omega_equal_pull_is_engine_class(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega1 = 1.0\nomega2 = 0.4\nbeta1 = 0.4\nbeta2 = 1.0\n")
    out = tmp_path / "o.csv"
    assert cli.main(["sweep-omega", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    assert rows[0]["class"] == "H"
    assert rows[0]["regime"] == "R-range"


def test_sweep_omega_large_gaps_print_their_class(tmp_path):
    # beta*omega = 40 and 100: the excited populations are e^-40 and e^-100, not 0
    conf = tmp_path / "c.ini"
    conf.write_text("beta1 = 1e-5\nbeta2 = 1e-3\nomega1 = 4e6\nomega2 = 1e5\n")
    out = tmp_path / "o.csv"
    assert cli.main(["sweep-omega", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    assert (rows[0]["class"], rows[0]["regime"]) == ("E", "E-range")
    assert float(rows[0]["dE1"]) == pytest.approx(-8.4967085105e-12, rel=1e-9)


def test_regime_boundary_agrees_with_noise(tmp_path):
    # the rounded ratios omega2/omega1 and beta1/beta2 are both fl(0.3), but the exact
    # fl(0.3)*fl(0.7) lies below fl(0.21): E-range, and no nu_c
    conf = tmp_path / "c.ini"
    conf.write_text("omega1 = 0.7\nomega2 = 0.21\nbeta1 = 0.3\nbeta2 = 1.0\nnu_values = 0.5\n")
    sweep, noise = tmp_path / "s.csv", tmp_path / "n.csv"
    assert cli.main(["sweep-omega", "--config", str(conf), "--out", str(sweep)]) == 0
    assert cli.main(["noise", "--config", str(conf), "--out", str(noise)]) == 0
    assert [(r["ratio"], r["regime"]) for r in _rows(_read(sweep))[1]] == [("0.3", "E-range")]
    assert [r["nu_c_interf"] for r in _rows(_read(noise))[1]] == ["nan"]


@pytest.mark.parametrize("command", ["sweep-omega", "noise"])
@pytest.mark.parametrize("line", ["eps=1e-320", "omega1=1e300", "omega1=1e308", "omega1=1e-320"])
def test_extreme_scales_run_and_classify(tmp_path, command, line):
    # dE = dE1 + dE2 is rounded once; that rounding is no invariant breach
    conf = tmp_path / "c.ini"
    conf.write_text(line + "\n")
    out = tmp_path / "o.csv"
    assert cli.main([command, "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    if command == "sweep-omega":
        assert [r["class"] for r in rows] == [r["regime"][0] for r in rows]
        if line == "omega1=1e-320":
            # omega2/omega1 exceeds the double range; the cell is documented as inf
            assert all(r["ratio"] == "inf" for r in rows)
    else:
        assert "none" not in {r["class_white"] for r in rows}


def test_noise_labels_are_the_scalar_labels_with_none(tmp_path):
    # near infinite temperature with a huge gap, where the population gaps lie below
    # the rounding of p: the labels are classify's, none where it would raise
    values = dict(omega1=1.0313361251569146e-297, omega2=1.4545426489429465e+77,
                  beta1=7.122192255240355e-260, beta2=2.6892083747718e-131)
    nus = (0.0, 0.2, 0.5, 0.8, 1.0)
    conf = tmp_path / "c.ini"
    conf.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items())
                    + f"nu_values = {', '.join(map(str, nus))}\n")
    out = tmp_path / "o.csv"
    assert cli.main(["noise", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))

    def label(triple):
        try:
            return engine.classify(*triple)
        except ValidationError:
            return "none"

    triples, _ = engine.noise_sweep([engine.EngineConfig.from_values(**values)], nus)
    expected = [(label(white), label(interf)) for white, interf in triples[0].tolist()]
    assert [(r["class_white"], r["class_interf"]) for r in rows] == expected
    # the pairwise kernel keeps those gaps: every row has a class (the interference
    # rows printed none here before it), and the white rows are not all H
    assert "none" not in {label for pair in expected for label in pair}
    assert ("A", "A") in expected


def test_noise_prints_none_for_a_rejected_triple(tmp_path, monkeypatch):
    # a classless triple (heat out of both baths) and one that fails the sum check
    # both print none, and leave the other cells and the exit code alone
    sweep = cli.noise_sweep

    def rejected_cells(cfgs, nu_values):
        triples, nu_c = sweep(cfgs, nu_values)
        triples[0, 0, 1] = (-1e-3, -1e-3, -2e-3)
        triples[0, 1, 0] = (1e-3, 1e-3, 5e-3)
        return triples, nu_c

    monkeypatch.setattr(cli, "noise_sweep", rejected_cells)
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\nnu_values = 0.0, 1.0\n")
    out = tmp_path / "o.csv"
    assert cli.main(["noise", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    # the white row at nu = 0 is no noise-free measurement at all: c1(0) = 0, so H
    assert [(r["class_white"], r["class_interf"]) for r in rows] == [("H", "none"),
                                                                     ("none", "R")]
    assert float(rows[0]["dE1_interf"]) == -1e-3 and float(rows[1]["dE_white"]) == 5e-3


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'sweep-omega', "
                "'frequency', 'noise', 'haar-average', 'tomography', 'hologram')"),
    (["noise", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["noise", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_a_bad_command_line_exits_two_with_its_message(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qmcool [-h]")
    assert err.endswith(f"\nqmcool: error: {message}\n")


def test_frequency_requires_seed():
    assert cli.main(["frequency"]) == 2


def test_frequency_output_and_determinism(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18, 0.46\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["frequency", "--config", str(conf), "--seed", "7", "--samples", "800"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)
    header, rows = _rows(_read(a))
    assert header[:3] == ["omega2", "freq_R", "se_R"]
    total = sum(float(rows[0][c]) for c in ("freq_R", "freq_E", "freq_A", "freq_H"))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1]["freq_R"]) == 0.0


def test_unknown_config_key(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega3 = 1.0\n")
    assert cli.main(["sweep-omega", "--config", str(conf)]) == 2


def test_malformed_config_value(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega1 = fast\n")
    assert cli.main(["sweep-omega", "--config", str(conf)]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key", ["beta1", "beta2", "omega1", "omega2", "eps", "nu_values", "hologram_beta"])
def test_non_finite_config_value(tmp_path, key, value):
    conf = tmp_path / "c.ini"
    conf.write_text(f"{key} = {value}\n")
    assert cli.main(["sweep-omega", "--config", str(conf)]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_eps_flag(value):
    assert cli.main(["sweep-omega", f"--eps={value}"]) == 2


def test_config_missing_file():
    assert cli.main(["sweep-omega", "--config", "/nonexistent/path.ini"]) == 2


@pytest.mark.parametrize("where", ["missing/dir/o.csv", "."], ids=["missing_dir", "a_dir"])
def test_an_unwritable_out_path_is_config_error(tmp_path, capsys, where):
    # both used to escape as FileNotFoundError and IsADirectoryError, exit 1
    out = tmp_path / where
    assert cli.main(["sweep-omega", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output file {out}: ")
    assert err.count("\n") == 1 and not (tmp_path / "missing").exists()


@pytest.mark.parametrize("config, flags, named", [
    ("beta1 = -0.5\n", [], ["beta1", "-0.5"]),
    ("beta2 = 0\n", [], ["beta2", "0.0"]),
    ("beta1 = 2\nbeta2 = 1\n", [], ["beta1", "beta2", "2.0", "1.0"]),
    ("omega1 = -1\n", [], ["omega1", "-1.0"]),
    ("omega2 = 0.1, -0.2\n", [], ["omega2", "-0.2"]),
    ("omega2 = ,\n", [], ["omega2", "','"]),
    ("samples = 0\n", [], ["samples", "0"]),
    ("", ["--shots", str(2**63)], ["shots", str(2**63)]),
    ("", ["--seed", "-1"], ["seed", "-1"]),
    ("eps = 0\n", [], ["eps", "0.0"]),
    ("nu_values = 0.5, 1.5\n", [], ["nu_values", "1.5"]),
    ("hologram_beta = -2\n", [], ["hologram_beta", "-2.0"]),
], ids=["beta1", "beta2", "beta_order", "omega1", "omega2", "omega2_empty", "samples", "shots",
        "seed", "eps", "nu", "hologram_beta"])
def test_a_config_error_names_its_key_and_value(tmp_path, capsys, config, flags, named):
    conf = tmp_path / "c.ini"
    conf.write_text(config)
    assert cli.main(["sweep-omega", "--config", str(conf), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert all(text in err for text in named), err


def test_a_namespace_with_config_and_seed_resolves_as_the_command_line(tmp_path):
    # the benchmark builds its engines from resolve_config(Namespace(config=..., seed=...))
    conf = tmp_path / "c.ini"
    conf.write_text("beta1 = 0.3\nomega2 = 0.05, 0.9\nsamples = 300\nshots = 50\n")
    direct = cli.resolve_config(argparse.Namespace(config=str(conf), seed=3))
    parsed = cli.build_parser().parse_args(["haar-average", "--config", str(conf), "--seed", "3"])
    assert direct == cli.resolve_config(parsed)
    assert (direct.seed, direct.samples, direct.omega2) == (3, 300, (0.05, 0.9))


def test_bad_bath_ordering_is_config_error(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("beta1 = 2.0\nbeta2 = 1.0\n")
    assert cli.main(["sweep-omega", "--config", str(conf)]) == 2


def test_empty_omega2_list(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = ,\n")
    assert cli.main(["sweep-omega", "--config", str(conf)]) == 2


def test_flags_override_config(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("seed = 1\nsamples = 100\nomega2 = 0.18\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["frequency", "--config", str(conf), "--out", str(a)]) == 0
    assert cli.main(
        ["frequency", "--config", str(conf), "--seed", "2", "--out", str(b)]) == 0
    assert _read(a) != _read(b)
    assert "samples=100" in _read(a)


def test_noise_classification_constant_in_nu(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\nnu_values = 0.2, 0.5, 0.8, 1.0\n")
    out = tmp_path / "n.csv"
    assert cli.main(["noise", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    assert len(rows) == 4
    assert {r["class_white"] for r in rows} == {"R"}
    nu_c = {float(r["nu_c_interf"]) for r in rows}
    assert len(nu_c) == 1
    assert nu_c.pop() == pytest.approx(0.441558837890625, abs=2e-4)


def test_noise_no_critical_visibility_outside_r_range(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.46\nnu_values = 0.5\n")
    out = tmp_path / "n.csv"
    assert cli.main(["noise", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    assert rows[0]["nu_c_interf"] == "nan"


def test_noise_from_zero_weight_prints_no_negative_zero(tmp_path):
    # c1(0) = 0 times a negative white triple is -0.0 unless the rows add +0.0
    conf = tmp_path / "c.ini"
    conf.write_text("nu_values = " + ", ".join(str(round(0.01 * k, 2)) for k in range(101)))
    out = tmp_path / "n.csv"
    assert cli.main(["noise", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    assert len(rows) == 7 * 101 and rows[0]["nu"] == "0"
    assert "-0" not in {cell for row in rows for cell in row.values()}


def test_noise_builds_the_basis_maps_once_per_command(monkeypatch, tmp_path):
    # one noise_sweep call, whatever the number of omega2
    calls, sweep = [], cli.noise_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(cli, "noise_sweep", counted)
    conf = tmp_path / "c.ini"
    for omega2 in ("0.18", "0.02, 0.06, 0.10, 0.14, 0.18, 0.26, 0.34, 0.40, 0.46, 0.60, 0.86"):
        conf.write_text(f"omega2 = {omega2}\n")
        calls.clear()
        assert cli.main(["noise", "--config", str(conf), "--out", str(tmp_path / "n.csv")]) == 0
        assert len(calls) == 1


def test_emit_fast_path_matches_the_former_cell_format(tmp_path):
    cells = [0.1, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324,
             1.7976931348623157e308, np.float64(0.1), np.float64("nan"), np.float64(-2.5e-7),
             np.float32(0.1), 3, np.int64(-7), True, None, "R", ""]
    rows = [cells, cells[::-1], [c for c in cells if isinstance(c, float)]]
    out = tmp_path / "e.csv"
    cfg = cli.resolve_config(cli.build_parser().parse_args(["noise", "--out", str(out)]))
    assert cli._emit(cfg, "noise", ["note"], ("a", "b"), rows) == 0
    data = _read(out).splitlines()[3:]
    assert data == [",".join(fmt_cell(c) for c in row) for row in rows]
    assert data[0].split(",")[:8] == ["0.1", "-0", "nan", "nan", "inf", "-inf",
                                      "4.94065645841e-324", "1.79769313486e+308"]


# every float the row format must print as format(c, ".12g") does: NaN, infinities,
# signed zeros, the subnormal range and the largest double among them
CELLS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), -float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                     5e-324, 2.2250738585072004e-308, 1e-310, 1.7976931348623157e308]),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    st.text(),
)


@given(st.lists(st.lists(CELLS, max_size=12).map(tuple), max_size=6))
def test_emit_row_formats_print_what_format_prints(rows):
    cfg = cli.resolve_config(cli.build_parser().parse_args(["noise"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli._emit(cfg, "noise", [], ("a", "b"), rows) == 0
    # the first two lines are the provenance comment and the header
    assert out.getvalue().split("\n", 2)[2] == "".join(
        ",".join(fmt_cell(c) for c in row) + "\n" for row in rows)


def _tomography_rows(monkeypatch, argv):
    """(resolved config, rows) of one tomography run, caught on their way to _emit."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda cfg, command, comments, header, rows:
                        seen.append((cfg, list(rows))) or 0)
    assert cli.main(argv) == 0
    return seen[0]


@pytest.mark.parametrize("grid", [False, True], ids=["default", "grid14"])
@pytest.mark.parametrize("shots", [None, 10000], ids=["exact", "shots"])
@pytest.mark.parametrize("seed", [1, 3])
def test_tomography_rows_equal_the_looped_oracle(monkeypatch, tmp_path, grid, shots, seed):
    # the stacked pass gives every cell of the former per-target loop, bit for bit
    argv = ["tomography", "--seed", str(seed)]
    if shots is not None:
        argv += ["--shots", str(shots)]
    if grid:
        conf = tmp_path / "g.cfg"
        conf.write_text(GRID_14)
        argv += ["--config", str(conf)]
    cfg, rows = _tomography_rows(monkeypatch, argv)
    assert len(rows) == (len(cfg.omega2) + 1) * (2 if shots else 1) + (7 if shots else 1) + 16
    assert [tuple(map(repr, r)) for r in rows] == [tuple(map(repr, r))
                                                   for r in looped_tomography_rows(cfg)]


def test_tomography_shots_builds_each_probe_stream_once(monkeypatch, tmp_path):
    # 16 probe streams and the Haar stream, against one stream per (target, probe)
    # and 37 solves before; no generator cached by an earlier call may hide a build
    monkeypatch.setattr(_accel, "_STREAMS", threading.local())
    keys, solves = [], []
    pcg, lstsq = np.random.PCG64DXSM, np.linalg.lstsq
    monkeypatch.setattr(np.random, "PCG64DXSM", lambda seq:
                        keys.append(_stream_key(seq)) or pcg(seq))
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs:
                        solves.append(args[1].shape) or lstsq(*args, **kwargs))
    conf = tmp_path / "g.cfg"
    conf.write_text(GRID_14)
    out = tmp_path / "t.csv"
    assert cli.main(["tomography", "--config", str(conf), "--shots", "100", "--seed", "1",
                     "--out", str(out)]) == 0
    assert len(keys) <= 17 and len(set(keys)) == len(keys)
    assert sorted(keys) == [(1, j) for j in range(16)] + [(1, 2**63 - 1)]
    assert solves == [(16, 15), (16, 4), (16, 15), (16, 24)]


def _stream_key(seq):
    """(seed, word) of the SeedSequence a stream's PCG64DXSM is built from."""
    return (seq.entropy, *seq.spawn_key)


def _lossy_solve(call, column, value):
    """np.linalg.lstsq, with one column of the solution of its ``call``-th call replaced."""
    lstsq, calls = np.linalg.lstsq, []

    def solve(a, b, rcond=None):
        x = lstsq(a, b, rcond=rcond)
        calls.append(1)
        if len(calls) == call:
            x[0][:, column] = value
        return x
    return solve


def _leaky_at(omega):
    """cli.thermalizing_channel, except that the channel at gap ``omega`` doubles the trace."""
    thermalizing = cli.thermalizing_channel

    def channel(qubit, bath):
        out = thermalizing(qubit, bath)
        if qubit.omega == omega:  # past the completeness check of KrausChannel
            object.__setattr__(out, "operators", tuple(np.sqrt(2.0) * k for k in out.operators))
        return out
    return channel


@pytest.mark.parametrize("breach, label, message", [
    ("drift", "thermal(omega=0.14 beta=1)", "channel failed to preserve trace"),
    ("residual", "thermal(omega=0.14 beta=1)", "exact-mode reconstruction residual"),
    ("trace", "thermal(omega=0.14 beta=1)", "clipped chi has non-positive trace"),
    ("error", "canonical", "exact-mode reconstruction error"),
])
def test_tomography_names_the_target_on_exit_three(monkeypatch, tmp_path, capsys, breach, label,
                                                   message):
    # targets: (omega1, beta1), then omega2 = 0.06, 0.14 and 0.46 at beta2; column 2 is 0.14.
    # The solves run in order: process exact, measurement exact, process shots.
    if breach == "drift":
        monkeypatch.setattr(cli, "thermalizing_channel", _leaky_at(0.14))
    elif breach == "residual":
        monkeypatch.setattr(np.linalg, "lstsq", _lossy_solve(1, 2, 0.5))
    elif breach == "trace":
        monkeypatch.setattr(np.linalg, "lstsq", _lossy_solve(3, 2, -np.eye(4).reshape(-1)))
    else:
        monkeypatch.setattr(np.linalg, "lstsq", _lossy_solve(2, 1, 0.5))
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.06, 0.14, 0.46\n")
    out = tmp_path / "t.csv"
    assert cli.main(["tomography", "--config", str(conf), "--seed", "1", "--shots", "100",
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{label}: {message}" in err
    assert "0.06" not in err and "0.46" not in err
    assert not out.exists()


def test_haar_average_output(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\n")
    out = tmp_path / "h.csv"
    assert cli.main(["haar-average", "--config", str(conf), "--seed", "3",
                     "--samples", "2000", "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    row = rows[0]
    assert row["class_of_mean"] == "H"
    assert abs(float(row["mean_dE1"]) - float(row["pred_dE1"])) < 5 * float(row["se_dE1"])


@pytest.mark.parametrize("config", ["omega1 = 1e308\n", "omega1 = 1e-320\nomega2 = 1e308\n",
                                    # three separate means add up only to within 3.3
                                    "beta2 = 3.0\nomega1 = 3.973554692986576e+16\nomega2 = 15.0\n"],
                         ids=["huge-omega1", "tiny-omega1-huge-omega2", "gap-ratio-3e15"])
def test_haar_average_extreme_scales_stay_finite(tmp_path, config):
    conf = tmp_path / "c.ini"
    conf.write_text(config)
    out = tmp_path / "h.csv"
    assert cli.main(["haar-average", "--config", str(conf), "--seed", "1",
                     "--samples", "20", "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    cells = [float(v) for row in rows for k, v in row.items() if k.startswith(("mean_", "se_"))]
    assert cells and np.all(np.isfinite(cells))


def test_haar_average_requires_seed():
    assert cli.main(["haar-average"]) == 2


def test_tomography_exact_fidelities(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\n")
    out = tmp_path / "t.csv"
    assert cli.main(["tomography", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    exact = [r for r in rows if r["record"] == "process_exact"]
    assert len(exact) == 2  # qubit 1 and the single omega2 value
    for r in exact:
        assert float(r["fidelity"]) == pytest.approx(1.0, abs=1e-9)
    assert any(r["record"] == "chi_entry" for r in rows)


def test_tomography_shots_requires_seed(tmp_path):
    assert cli.main(["tomography", "--shots", "100"]) == 2


def test_tomography_shot_mode(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\n")
    out = tmp_path / "t.csv"
    assert cli.main(["tomography", "--config", str(conf), "--shots", "2000",
                     "--seed", "11", "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    shot_rows = [r for r in rows if r["record"] == "process_shots"]
    assert shot_rows
    for r in shot_rows:
        assert 0.9 <= float(r["fidelity"]) <= 1.0
        assert r["shots"] == "2000"


def test_hologram_grid(tmp_path):
    out = tmp_path / "holo.csv"
    assert cli.main(["hologram", "--out", str(out)]) == 0
    header, rows = _rows(_read(out))
    assert header == ["z", "phase_rad"]
    assert len(rows) == 512
    phases = {int(r["z"]): float(r["phase_rad"]) for r in rows}
    for z in (1, 100, 256):
        # the CSV keeps 12 significant digits
        assert phases[-z] == pytest.approx(phases[z] - np.pi, abs=1e-9)
        assert np.pi / 2 <= phases[z] <= np.pi + 1e-12


def test_hologram_beta_override(tmp_path):
    conf = tmp_path / "c.ini"
    conf.write_text("hologram_beta = 1.0\n")
    out = tmp_path / "holo.csv"
    assert cli.main(["hologram", "--config", str(conf), "--out", str(out)]) == 0
    _, rows = _rows(_read(out))
    phases = {int(r["z"]): float(r["phase_rad"]) for r in rows}
    assert phases[204] == pytest.approx(2.0600250200165475, abs=1e-10)


def test_stdout_when_no_out_flag(capsys):
    assert cli.main(["sweep-omega"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# qmcool")
    assert "R-range" in captured.out
    # exactly the outputs that read the Haar stream carry its version
    for args, seeded in ((["frequency", "--seed", "1", "--samples", "5"], True),
                         (["haar-average", "--seed", "1", "--samples", "5"], True),
                         (["tomography", "--seed", "1", "--shots", "10"], True),
                         (["tomography"], False), (["sweep-omega"], False),
                         (["noise"], False), (["hologram"], False)):
        assert cli.main(args) == 0
        comments = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#")]
        assert (f"# stream={_accel.STREAM_VERSION}" in comments) is seeded, args


def test_exit_code_three_on_invariant_violation(monkeypatch, capsys):
    def boom(cfg):
        raise ValidationError("synthetic failure")
    monkeypatch.setitem(cli._COMMANDS, "sweep-omega", boom)
    assert cli.main(["sweep-omega"]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_config_hash_excludes_out_path(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "deeper_name.csv"
    cli.main(["sweep-omega", "--out", str(a)])
    cli.main(["sweep-omega", "--out", str(b)])
    assert _read(a).splitlines()[0] == _read(b).splitlines()[0]


SEEDED_COMMANDS = (
    ["frequency", "--samples", "5"],
    ["haar-average", "--samples", "5"],
    ["tomography", "--shots", "10"],
)


@pytest.mark.parametrize("command", SEEDED_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize(
    "seed, code", [(2**63 - 1, 0), (2**63, 2), (2**64 - 1, 2), (2**64, 2), (10**30, 2)])
def test_seed_beyond_int64_is_config_error(tmp_path, command, seed, code):
    # seeds stay in [0, 2**63 - 1], the range of every integer input
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\n")
    args = command + ["--config", str(conf), "--seed", str(seed), "--out", str(tmp_path / "o")]
    assert cli.main(args) == code


def test_tomography_haar_key_is_not_a_shot_key(monkeypatch, tmp_path):
    # the Haar bases and the shot counts of probe i used to share one key, (seed, i)
    monkeypatch.setattr(_accel, "_STREAMS", threading.local())
    haar_keys, shot_keys, in_haar = [], [], []
    pcg, ginibre = np.random.PCG64DXSM, _accel.ginibre_batch

    def recording_pcg(seq):
        (haar_keys if in_haar else shot_keys).append(_stream_key(seq))
        return pcg(seq)

    def recording_ginibre(*args):
        in_haar.append(True)
        try:
            return ginibre(*args)
        finally:
            in_haar.clear()

    monkeypatch.setattr(np.random, "PCG64DXSM", recording_pcg)
    monkeypatch.setattr(_accel, "ginibre_batch", recording_ginibre)
    out = tmp_path / "t.csv"
    assert cli.main(["tomography", "--shots", "10", "--seed", "3", "--out", str(out)]) == 0
    assert len(haar_keys) == 1
    assert shot_keys and haar_keys[0] not in shot_keys


def test_shots_beyond_int64_is_config_error():
    assert cli.main(["tomography", "--shots", str(2**63), "--seed", "1"]) == 2


@pytest.mark.parametrize("command", ["frequency", "haar-average"])
@pytest.mark.parametrize("samples", [0, 2**63, 2**64, 10**30])
def test_samples_beyond_int64_is_config_error(command, samples):
    # 2**63 used to reach the sampler's own check and exit 3
    assert cli.main([command, "--seed", "1", "--samples", str(samples)]) == 2


def test_sweep_omega_names_the_row_on_exit_three(tmp_path, monkeypatch, capsys):
    # a canonical pair N_M of the opposite sign moves heat out of both baths on one row only
    terms = engine._canonical_terms

    def flipped(cfg):
        n1, n2, *rest = terms(cfg)
        return (-n1, -n2, *rest) if cfg.qubit2.omega == 0.14 else (n1, n2, *rest)

    monkeypatch.setattr(engine, "_canonical_terms", flipped)
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.06, 0.14, 0.46\n")
    out = tmp_path / "s.csv"
    assert cli.main(["sweep-omega", "--config", str(conf), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "omega2 = 0.14: beta1*dE1 + beta2*dE2" in err
    assert "0.06" not in err and "0.46" not in err
    assert not out.exists()


@pytest.mark.parametrize("error", [ValidationError, SecondLawViolation])
def test_hologram_names_the_row_on_exit_three(tmp_path, monkeypatch, capsys, error):
    # a solver whose hologram breaks an invariant: the message names the beta it solved for
    def broken(bath):
        raise error("upper-half phases must lie in [pi/2, pi]")

    monkeypatch.setattr(cli, "solve_hologram", broken)
    conf = tmp_path / "c.ini"
    conf.write_text("hologram_beta = 0.75\n")
    out = tmp_path / "h.csv"
    assert cli.main(["hologram", "--config", str(conf), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "invariant violation: beta = 0.75: upper-half phases" in err
    assert not out.exists()
