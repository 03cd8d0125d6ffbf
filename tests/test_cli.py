"""Command-line interface: subcommands, config handling, exit codes, output."""

import numpy as np
import pytest

from qmcool import cli
from qmcool.errors import ValidationError


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


@pytest.mark.parametrize("config", ["omega1 = 1e308\n", "omega1 = 1e-320\nomega2 = 1e308\n"],
                         ids=["huge-omega1", "tiny-omega1-huge-omega2"])
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
    # numpy's Philox aliases keys >= 2**63 (float64) and rejects keys >= 2**64
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\n")
    args = command + ["--config", str(conf), "--seed", str(seed), "--out", str(tmp_path / "o")]
    assert cli.main(args) == code


def test_shots_beyond_int64_is_config_error():
    assert cli.main(["tomography", "--shots", str(2**63), "--seed", "1"]) == 2
