"""The chunked Haar path: bit-for-bit agreement with one whole draw, the mask
classifier, per-sample invariant checks, eager validation and flat memory."""

import functools
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmcool import (
    EngineConfig,
    HaarSampler,
    SecondLawViolation,
    ValidationError,
    _accel,
    classify,
    cli,
    engine,
    frequency_sweep,
    haar_average_report,
    haar_unitaries,
    haar_unitary,
    measure,
)
from qmcool.engine import CHUNK, CLASS_LABELS, _class_codes, _class_counts, _haar_chunks
from qmcool.measure import READ_AHEAD, haar_planes

from helpers import (
    EXPERIMENT_OMEGA2,
    chunked_haar_triples,
    reference_config,
    whole_draw_haar_moments,
    whole_draw_haar_triples,
)

SEED = 19
# chunk and block (two chunks) boundaries at the start of the draw and many chunks into it
BOUNDARY_NS = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
               2 * CHUNK + 3, 4 * CHUNK + 3,
               16 * CHUNK - 1, 16 * CHUNK, 16 * CHUNK + 1, 32 * CHUNK + 3)
CFGS = [reference_config(omega2) for omega2 in EXPERIMENT_OMEGA2]


@functools.lru_cache(maxsize=None)
def _oracle(n):
    return whole_draw_haar_triples(CFGS, n, SEED)


@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_chunk_triples_match_whole_draw(n):
    assert np.array_equal(chunked_haar_triples(CFGS, n, SEED), _oracle(n))


@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_frequency_counts_match_whole_draw(n):
    for est, rows in zip(frequency_sweep(CFGS, n, SEED), _oracle(n)):
        counts = Counter(classify(*row) for row in rows.tolist())
        assert {label: est[label].frequency for label in CLASS_LABELS} == {
            label: counts[label] / n for label in CLASS_LABELS}


@pytest.mark.parametrize("n", (1, 2) + BOUNDARY_NS)
def test_haar_average_matches_whole_draw(n):
    for cfg, rep, rows in zip(CFGS, haar_average_report(CFGS, n, SEED), _oracle(n)):
        means, errs = whole_draw_haar_moments(cfg, rows)
        got_means = (rep.mean_dE1, rep.mean_dE2, rep.mean_dE)
        got_errs = (rep.stderr_dE1, rep.stderr_dE2, rep.stderr_dE)
        if n <= CHUNK:
            assert got_means == tuple(means) and np.array_equal(got_errs, errs, equal_nan=True)
        else:
            assert np.allclose(got_means, means, rtol=1e-12, atol=0)
            assert np.allclose(got_errs, errs, rtol=1e-12, atol=0)


@pytest.mark.parametrize("chunk", [3, 64, CHUNK])
def test_chunk_size_changes_no_result(monkeypatch, chunk):
    n = 2 * CHUNK + 3
    expected = frequency_sweep(CFGS, n, SEED)
    monkeypatch.setattr(engine, "CHUNK", chunk)
    assert np.array_equal(chunked_haar_triples(CFGS, n, SEED), _oracle(n))
    assert frequency_sweep(CFGS, n, SEED) == expected
    # the means merge chunk by chunk, so they round by the chunk size, never the block's:
    # they have the bits of the whole draw's triples handed over in chunks of that size
    reports = haar_average_report(CFGS, n, SEED)
    whole = _oracle(n).transpose(0, 2, 1)
    monkeypatch.setattr(engine, "_haar_chunks", lambda cfgs, n_samples, seed: (
        (start, whole[:, :, start:start + chunk].copy()) for start in range(0, n, chunk)))
    assert haar_average_report(CFGS, n, SEED) == reports


def test_a_lone_map_gets_the_triple_of_its_row_in_the_stack():
    # a one-map stack must round as a long one, so a last chunk of one sample
    # matches the whole draw without a rule of its own
    big_p = engine._canonical_p(haar_planes(HaarSampler(SEED), 1024))
    entries = engine._pair_entries(big_p)
    coef = np.array([engine._pair_coefficients(cfg) for cfg in CFGS])
    whole = engine._pair_triples(coef, entries)
    for i in range(entries.shape[1]):
        lone = engine._pair_entries(np.ascontiguousarray(big_p[..., i:i + 1]))
        assert np.array_equal(lone[:, 0], entries[:, i])
        assert np.array_equal(engine._pair_triples(coef, lone), whole[..., i:i + 1])
    # the draw runs two chunks at a time, and yields them one by one
    for n, sizes in ((CHUNK + 1, [(0, CHUNK), (CHUNK, 1)]),
                     (2 * CHUNK + 1, [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, 1)])):
        assert [(start, t.shape[2]) for start, t in _haar_chunks(CFGS[:1], n, SEED)] == sizes


def _ties(eps):
    up = np.nextafter(eps, np.inf)
    down = np.nextafter(eps, -np.inf)
    return [0.0, -0.0, 5e-324, -5e-324, eps, -eps, up, -up, down, -down, 2 * eps, -2 * eps]


@st.composite
def tie_stacks(draw):
    eps = draw(st.sampled_from([1e-12, 1e-3, 0.0]))
    # non-finite and signed-zero entries: the rules use abs and & on floats and on arrays
    ties = st.one_of(st.sampled_from(_ties(eps)), st.sampled_from([1.0, -1.0, 3.0, -0.75]),
                     st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        de1, de2 = draw(ties), draw(ties)
        how = draw(st.sampled_from(["sum", "tie", "ulps"]))
        de = draw(ties) if how == "tie" else de1 + de2
        if how == "ulps":  # a few ulps off the sum, around the rounding allowance of the sum check
            to = draw(st.sampled_from([np.inf, -np.inf]))
            for _ in range(draw(st.integers(1, 3))):
                de = np.nextafter(de, to)
        rows.append((de1, de2, de))
    return eps, np.array(rows, dtype=float)


# inf - inf, in a sum or in the sum check, is nan, as it is in classify
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(tie_stacks())
def test_mask_classifier_matches_scalar_on_ties(case):
    eps, triples = case
    planes = triples.T[None]  # one config's (3, m) planes
    labels, codes = [], []
    for i, row in enumerate(triples):
        try:
            labels.append(classify(*row.tolist(), eps))
            codes.append(CLASS_LABELS.index(labels[-1]))
        except ValidationError as exc:
            labels.append(None)
            kind = "inconsistent triple" if str(exc).startswith("inconsistent") else "no operation"
            codes.append(-2 if kind == "inconsistent triple" else -1)
            with pytest.raises(ValidationError, match=f"Haar sample 0: {kind}") as info:
                _class_counts(planes[..., i:i + 1], eps, [0.18], 0)
            assert str(info.value).endswith(f"Haar sample 0: {exc}")
    assert _class_codes(*triples.T, eps).tolist() == codes
    if None in labels:
        with pytest.raises(ValidationError):
            _class_counts(planes, eps, [0.18], 0)
    classified = [label is not None for label in labels]
    if any(classified):
        counts = _class_counts(planes[..., classified], eps, [0.18], 0)
        expected = Counter(labels)
        assert dict(zip(CLASS_LABELS, counts[0].tolist())) == {
            label: expected[label] for label in CLASS_LABELS}


def test_every_classifier_follows_the_one_set_of_rules(monkeypatch):
    # classify, the mask codes and the chunk counts all read _class_rules, so a change
    # to the rules reaches all three
    def always_a(de1, de2, de, eps):
        yes, no = abs(de1) >= 0, abs(de1) < 0
        return [no, no, no, no, yes, no]

    planes = np.array([[[0.0, 1.0, -1.0], [0.0, -1.0, -1.0], [0.0, 0.0, -2.0]]])
    monkeypatch.setattr(engine, "_class_rules", always_a)
    assert [classify(*row) for row in planes[0].T.tolist()] == ["A"] * 3
    assert _class_codes(*planes[0], 1e-12).tolist() == [2] * 3
    assert _class_counts(planes, 1e-12, [0.18], 0).tolist() == [[0, 0, 3, 0]]

    def never(de1, de2, de, eps):
        return [abs(de1) < 0] * 6

    monkeypatch.setattr(engine, "_class_rules", never)
    with pytest.raises(ValidationError, match="no operation class matches"):
        classify(0.0, 0.0, 0.0)
    assert _class_codes(*planes[0], 1e-12).tolist() == [-1] * 3
    with pytest.raises(ValidationError, match="Haar sample 5: no operation class matches"):
        _class_counts(planes, 1e-12, [0.18], 5)


def test_class_counts_raise_in_config_order():
    # a classless triple of the first config is named before an inconsistent one of
    # the second, and within a config an inconsistent triple before a classless one
    planes = np.zeros((3, 3, 4))
    planes[0, :, 2] = (-1.0, -1.0, -2.0)
    planes[1, :, 1] = (1.0, 1.0, 5.0)
    planes[1, :, 3] = (-1.0, -1.0, -2.0)
    planes[2, :, 0] = (-1.0, -1.0, -2.0)
    planes[2, :, 3] = (1.0, 1.0, 5.0)
    with pytest.raises(ValidationError, match=r"omega2 = 0\.1, Haar sample 9: no operation"):
        _class_counts(planes, 1e-12, [0.1, 0.2, 0.3], 7)
    with pytest.raises(ValidationError, match=r"omega2 = 0\.2, Haar sample 8: inconsistent"):
        _class_counts(planes[1:], 1e-12, [0.2, 0.3], 7)
    with pytest.raises(ValidationError, match=r"omega2 = 0\.3, Haar sample 10: inconsistent"):
        _class_counts(planes[2:], 1e-12, [0.3], 7)
    assert _class_counts(planes[:2, :, :1], 1e-12, [0.1, 0.2], 0).tolist() == [[0, 0, 0, 1]] * 2


def _one_bad_sample(monkeypatch, index):
    """The six pairwise entries of Haar sample ``index`` become -1, for every config:
    no population map has them, and the kernel then moves heat out of both baths at
    once, which breaks the second law and matches no class.  (Each pairwise term of a
    real map keeps the second law by itself, so no real basis breaks it.)"""
    draw, entries = engine.haar_planes, engine._pair_entries
    starts = []

    def drawn(sampler, *args):
        starts.append(sampler.counter)
        return draw(sampler, *args)

    def corrupted(big_p, out=None):
        got = entries(big_p, out)
        if 0 <= index - starts[-1] < got.shape[1]:
            got[:, index - starts[-1]] = -1.0
        return got
    monkeypatch.setattr(engine, "haar_planes", drawn)
    monkeypatch.setattr(engine, "_pair_entries", corrupted)


@pytest.mark.parametrize("run", [frequency_sweep, haar_average_report])
def test_second_law_breach_names_row_and_sample(monkeypatch, run):
    index = CHUNK + 5
    _one_bad_sample(monkeypatch, index)
    with pytest.raises(SecondLawViolation, match=rf"omega2 = 0\.18, Haar sample {index}:"):
        run([reference_config(0.18)], 2 * CHUNK, SEED)


@pytest.mark.parametrize("command", ["frequency", "haar-average"])
def test_second_law_breach_in_a_later_block_names_its_sample(monkeypatch, tmp_path, capsys,
                                                              command):
    # the draw runs two chunks at a time; a breach in the second block is named by its
    # index in the whole draw, on exit 3
    index = 2 * CHUNK + 5
    _one_bad_sample(monkeypatch, index)
    conf = tmp_path / "c.ini"
    conf.write_text("omega2 = 0.18\n")
    argv = [command, "--config", str(conf), "--seed", str(SEED), "--samples", str(4 * CHUNK),
            "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(
        f"invariant violation: omega2 = 0.18, Haar sample {index}: beta1*dE1 + beta2*dE2 = ")


def test_second_law_breach_comes_before_a_classless_triple(monkeypatch):
    # every config of the chunk is checked for the second law before any is classified
    _one_bad_sample(monkeypatch, 5)
    monkeypatch.setattr(engine, "SLACK_FLOOR", -np.inf)
    with pytest.raises(ValidationError, match=r"omega2 = 0\.02, Haar sample 5: no operation"):
        frequency_sweep(CFGS, CHUNK, SEED)
    monkeypatch.setattr(engine, "SLACK_FLOOR", -1e-10)
    with pytest.raises(SecondLawViolation, match=r"omega2 = 0\.02, Haar sample 5:"):
        frequency_sweep(CFGS, CHUNK, SEED)


def test_classless_triple_names_row_and_sample(monkeypatch):
    index = CHUNK + 5
    _one_bad_sample(monkeypatch, index)
    monkeypatch.setattr(engine, "SLACK_FLOOR", -np.inf)
    match = rf"omega2 = 0\.18, Haar sample {index}: no operation"
    with pytest.raises(ValidationError, match=match):
        frequency_sweep([reference_config(0.18)], 2 * CHUNK, SEED)


def test_the_engine_never_orthonormalizes_column_3(monkeypatch):
    # a block of BLOCK chunks and the last one of 3 samples each hand the planar
    # Gram-Schmidt columns 0-2 only; every full unitary hands it all four, one piece of
    # at most READ_AHEAD samples at a time, and a single one its whole aligned block
    seen = []
    planar = _accel._orthonormalize_gauged
    monkeypatch.setattr(measure, "_BLOCK", threading.local())
    monkeypatch.setattr(_accel, "_orthonormalize_gauged", lambda q, scratch:
                        seen.append((len(q), q.shape[-1])) or planar(q, scratch))
    frequency_sweep(CFGS[:1], engine.BLOCK * CHUNK + 3, SEED)
    assert seen == [(3, engine.BLOCK * CHUNK), (3, 3)]
    seen.clear()
    haar_unitaries(HaarSampler(SEED), READ_AHEAD + 3)
    haar_unitary(HaarSampler(SEED + 1, 2 * READ_AHEAD + 5))
    assert seen == [(4, READ_AHEAD), (4, 3), (4, READ_AHEAD)]


def _overfull_planes(m):
    """Columns 0-2 of the identity for m samples, with entry (0, 0) 1 + 2**-52: row 0 of
    P then sums to 1 + 2**-51 over columns 0-2, so 1 - that sum rounds below 0."""
    q = np.zeros((3, 2, 4, m))
    for j in range(3):
        q[j, 0, j] = 1.0
    q[0, 0, 0] = 1 + 2.0**-52
    return q


def test_a_last_column_that_rounds_below_zero_is_clipped(monkeypatch):
    # Both excited populations underflow, so every pairwise term but (|00>, |11>) is 0,
    # and that one has weight P[0, 3] P[3, 3] = P[0, 3]: unclipped, -2**-51 of the
    # ~3e6 that the pair moves breaks the second law by itself
    cfg = EngineConfig.from_values(1e3, 1e3, 1e3, 2e3)
    big_p = engine._canonical_p(_overfull_planes(1))
    raw = 1.0 - big_p[0, 0, 0] - big_p[1, 0, 0] - big_p[2, 0, 0]
    assert raw < 0 and big_p[3, 0, 0] == 0.0
    unclipped = big_p.copy()
    unclipped[3, 0, 0] = raw
    coef = np.array(engine._pair_coefficients(cfg))[None]
    for p, ok in ((big_p, True), (unclipped, False)):
        de1, de2, _ = engine._pair_triples(coef, engine._pair_entries(p))[0, :, 0]
        assert (cfg.bath1.beta * de1 + cfg.bath2.beta * de2 >= engine.SLACK_FLOOR) == ok
    # every chunk of the engine draws such a sample, and none raises
    monkeypatch.setattr(engine, "haar_planes", lambda sampler, m, *args: _overfull_planes(m))
    rep, = haar_average_report([cfg], CHUNK + 3, SEED)
    assert rep.mean_dE1 == rep.mean_dE2 == 0.0
    est, = frequency_sweep([cfg], CHUNK + 3, SEED)
    assert sum(e.frequency for e in est.values()) == 1.0


def test_sample_count_is_checked_before_the_first_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a chunk")
    monkeypatch.setattr(engine, "haar_planes", no_draw)
    cfg = reference_config()
    for n in (10.7, 0, True, -1, "5"):
        for run in (_haar_chunks, haar_average_report, frequency_sweep):
            with pytest.raises(ValidationError):
                run([cfg], n, SEED)
    _haar_chunks([cfg], 5, SEED)  # nothing is drawn until the chunks are read


def _peak_bytes(run, cfgs, n):
    tracemalloc.start()
    try:
        run(cfgs, n, SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_haar_average_memory_is_flat_in_n():
    cfgs = [reference_config()]
    small, large = (_peak_bytes(haar_average_report, cfgs, n)
                    for n in (engine.BLOCK * CHUNK, 16 * CHUNK))
    assert abs(large - small) <= 0.1 * small, (small, large)


def test_frequency_memory_is_flat_in_n_on_seven_rows():
    small, large = (_peak_bytes(frequency_sweep, CFGS, n) for n in (4 * CHUNK, 32 * CHUNK))
    assert abs(large - small) <= 0.1 * small, (small, large)
