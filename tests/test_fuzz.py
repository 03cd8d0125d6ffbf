"""CLI fuzzing: every drawn config runs (exit 0) or is a config error (exit 2),
and a run that exits 0 prints only finite numbers, apart from three documented cells."""

import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from qmcool import cli

# the full range, and a moderate one so that many drawn configs get past validation
FLOATS = st.one_of(st.floats(1e-320, 1e308), st.floats(1e-3, 1e3))
NUS = st.one_of(st.floats(0.0, 1.0), FLOATS)
BIG_INTS = st.one_of(
    st.sampled_from([2**63 - 1, 2**63, 2**64]), st.integers(0, 2**63 - 1), st.integers(0, 2**70))
COMMANDS = ("sweep-omega", "noise", "tomography", "frequency", "haar-average", "hologram")


@st.composite
def invocations(draw):
    """(argv without --config/--out, config file text)."""
    command = draw(st.sampled_from(COMMANDS))
    values = {}
    for key in ("beta1", "beta2", "omega1", "eps", "hologram_beta"):
        if draw(st.booleans()):
            values[key] = draw(FLOATS)
    if "beta2" in values and draw(st.booleans()):  # often an ordered pair, beta1 < beta2
        fraction = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        values["beta1"] = values["beta2"] * fraction
    values = {key: repr(value) for key, value in values.items()}
    for key, strategy in (("omega2", FLOATS), ("nu_values", NUS)):
        if draw(st.booleans()):
            values[key] = ",".join(map(repr, draw(st.lists(strategy, min_size=1, max_size=3))))
    if values and draw(st.booleans()) and draw(st.booleans()):
        # one non-finite value; it alone rejects the config, so draw it rarely
        values[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from(["nan", "inf"]))
    flags = []
    # samples is always set: the default of 10000 per row would make the test slow
    for key, strategy, places in (("seed", BIG_INTS, ("flag", "file", None)),
                                  ("shots", BIG_INTS, ("flag", "file", None)),
                                  ("samples", st.integers(1, 20), ("flag", "file"))):
        where = draw(st.sampled_from(places))
        if where == "flag":
            flags += [f"--{key}", str(draw(strategy))]
        elif where == "file":
            values[key] = str(draw(strategy))
    return [command] + flags, "".join(f"{k} = {v}\n" for k, v in values.items())


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(invocations())
def test_cli_exits_zero_or_config_error(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        out = os.path.join(tmp, "o.csv")
        code = cli.main(argv + ["--config", path, "--out", out])
        assert code in (0, 2), (argv, config)
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                _assert_finite_cells(argv[0], fh.read().splitlines(), (argv, config))


def _assert_finite_cells(command, lines, context):
    """Every numeric cell is finite, except nu_c_interf = nan (no critical visibility),
    se_* = nan at one sample, and sweep-omega's ratio = inf (omega2/omega1 overflows)."""
    one_sample = "# samples=1 per omega2, same seed shared across rows" in lines
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    for line in body[1:]:
        for key, cell in zip(header, line.split(",")):
            try:
                value = float(cell)
            except ValueError:
                continue
            if math.isfinite(value):
                continue
            allowed = ((key == "nu_c_interf" and cell == "nan")
                       or (key.startswith("se_") and cell == "nan" and one_sample)
                       or (command == "sweep-omega" and key == "ratio" and cell == "inf"))
            assert allowed, (key, cell, context)
