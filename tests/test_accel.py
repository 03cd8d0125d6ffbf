"""Haar stream (version 8): layout, random access, seed range, the stream keys, the
per-thread generators positioned by advance or continued after a fill, the planar
Box-Muller, the Gram-Schmidt step, the engine's row-gauged three-column draw by the half
angle, and the pinned bits of the unitaries and of the engine's draw."""

import ast
import hashlib
import pathlib
import re
import sys
import threading

import numpy as np
import pytest

from qmcool import (EngineConfig, HaarSampler, ValidationError, _accel, canonical_basis,
                    engine, frequency_sweep, haar_average_report, haar_unitaries)
from qmcool.engine import CHUNK, _haar_chunks
from qmcool.measure import WORK_WORDS, haar_planes, haar_unitary

from helpers import (box_muller_sample, complex_matrices, fresh_stream, gauged_ginibre,
                     gauged_ginibre_trig, planes_of, qr_gauge_haar, same_bits)

# SHA-256 of haar_unitaries(HaarSampler(seed), 64) and haar_unitary(HaarSampler(seed, 3)),
# as bytes, recorded at stream version 8 (numpy 2.4, x86-64 with AVX-512): tomography's
# haar_i bases and every single-basis draw read U's phases, which only the engine's
# row-gauged draw may drop
UNITARY_DIGESTS = {
    1: ("d9ea774d460967c65b1f17ddfd577e269d2722ccdd71c224e0ef75a2733944bd",
        "866790c7cab1b60285e88d66ed72039ad566a1d1beca6ab385f3c60ecf6937e7"),
    7: ("345546770c1d1484ae7ac96a25ed9ef0bb7108a6859702ebcc01814adffb9d03",
        "ee0deeb8f8d35637635a57fb024e02b98d1205b01df88975026b6098690db009"),
}
# SHA-256 of the engine's draw haar_planes(HaarSampler(seed), 64, None, 3), as bytes,
# recorded at stream version 8 (numpy 2.4, x86-64 with AVX-512, whose SIMD tan it reads)
ENGINE_DIGESTS = {
    1: "33a324c7b884a0a35d467e0c4322152ab654e875ae3dcefa63938e84ac95f10d",
    7: "d70eb9d1882974d6859402aa503620e38e31d712545d554917f524f8d9b64bb6",
}
# the names that build a generator; only _accel.stream may use them
_GENERATOR_NAMES = {"Philox", "PCG64DXSM", "SeedSequence", "default_rng"}


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
@pytest.mark.parametrize("i", [0, 1, 31, 4096])
def test_ginibre_layout_matches_box_muller_oracle(seed, i):
    assert np.array_equal(complex_matrices(_accel.ginibre_batch(seed, i, 1))[0],
                          box_muller_sample(seed, i))


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
@pytest.mark.parametrize("n", [_accel.PLANAR_MIN - 1, _accel.PLANAR_MIN, 672])
@pytest.mark.parametrize("cols", [3, 4])
def test_planar_box_muller_matches_the_oracle(seed, n, cols):
    # from PLANAR_MIN samples on, Box-Muller runs on the planes: every column of every
    # sample still gets the oracle's bits; three columns are the engine's draw, gauged
    # by row at any n, with the gauged oracle's bits, signed zeros included
    gin = complex_matrices(_accel.ginibre_batch(seed, 40, n, cols))
    assert gin.shape == (n, 4, cols)
    for i in (0, n // 2, n - 1):
        if cols == 3:
            assert same_bits(gin[i], gauged_ginibre(seed, 40 + i, 1)[0][:, :3])
        else:
            assert same_bits(gin[i], box_muller_sample(seed, 40 + i))


def test_ginibre_substreams_are_independent_of_batching():
    batch = _accel.ginibre_batch(99, 0, 20000)
    for i in (0, 1, 31, 4096, 19999):
        single = _accel.ginibre_batch(99, i, 1)[0]
        assert np.array_equal(batch[i], single)
    # sample 2**63 - 1 is an advance of ~2**68 words, well inside PCG's period of 2**128
    top = _accel.ginibre_batch(99, 2**63 - 2, 2)
    assert np.array_equal(top[0], _accel.ginibre_batch(99, 2**63 - 2, 1)[0])
    assert np.array_equal(top[1], _accel.ginibre_batch(99, 2**63 - 1, 1)[0])


def test_ginibre_batch_offset():
    a = _accel.ginibre_batch(5, 3, 4)
    b = _accel.ginibre_batch(5, 0, 7)
    assert np.array_equal(a, b[3:])


def test_ginibre_rejects_bad_seed():
    # int() would alias 1.5, "7" and True to other seeds; None has no key
    for seed in (-1, None, 1.5, "7", True):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(seed, 0, 2)
    for seed in (None, 2**63, 1.5):
        with pytest.raises(ValidationError):
            HaarSampler(seed)
    with pytest.raises(ValidationError):
        HaarSampler(1, 2**63)
    # seeds, counters and counts stay in [0, 2**63 - 1], as every CLI input does
    with pytest.raises(ValidationError):
        _accel.ginibre_batch(2**63, 0, 2)
    # a draw may end past sample 2**63 - 1: the stream runs on
    assert _accel.ginibre_batch(1, 2**63 - 1, 2).shape == (2, 4, 4, 2)
    assert _accel.ginibre_batch(2**63 - 1, 2**63 - 2, 2).shape == (2, 4, 4, 2)
    # counters and counts are checked, not truncated: int() moved 1.5 to 1 and let -1 through
    for start in (1.5, -1, True, "1"):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(1, start, 2)
    for counter in (1.5, -1, True):
        with pytest.raises(ValidationError):
            HaarSampler(5, counter)
    cfg = EngineConfig.from_values(1.0, 0.18, 0.4, 1.0)
    for n in (10.7, 0, True):
        for run in (_haar_chunks, haar_average_report, frequency_sweep):
            with pytest.raises(ValidationError):
                run([cfg], n, 3)


def test_stream_draws_what_a_fresh_generator_draws():
    # interleaved seeds, words and skips, on both sides of 2**64: each call restores the
    # key's one generator and advances it, and draws what a freshly built one advanced
    # as far draws
    rng = np.random.default_rng(11)
    seeds, words = (0, 3, 2**63 - 1), (0, 1, 15, _accel.HAAR_WORD)
    skips = (0, 1, 2, 32, 32 * 4095, 2**64 - 1, 2**64, 2**64 + 5, 2**64 + 7, 32 * (2**63 - 1))
    for _ in range(600):
        seed, word, skip = (v[rng.integers(len(v))] for v in (seeds, words, skips))
        gen = _accel.stream(seed, word, skip)
        assert np.array_equal(gen.random(37), fresh_stream(seed, word, skip).random(37))
        # one generator per key, for the last seed asked for
        assert _accel.stream(seed, word) is gen
        assert set(_accel._STREAMS.keys) <= set(words) and _accel._STREAMS.seed == seed


def test_stream_keys_are_distinct():
    # a flat SeedSequence([seed, word]) joins words of variable width, so each pair below
    # would be one key; the spawn key follows the seed's entropy padded to a fixed length
    pairs = [((2**32 + 5, 3), (5, 3 * 2**32 + 1)), ((2**32, 7), (0, 7 * 2**32 + 1))]
    for a, b in pairs:
        assert np.array_equal(*(np.random.SeedSequence(list(k)).generate_state(4)
                                for k in (a, b)))
    keys = [(seed, word) for seed in (0, 1, 2, 17, 2**63 - 1)
            for word in [*range(17), _accel.HAAR_WORD]]
    keys += [k for pair in pairs for k in pair]
    first = {float(_accel.stream(seed, word).random()) for seed, word in keys}
    assert len(first) == len(keys)


def test_a_continued_or_restored_stream_draws_what_a_fresh_one_draws(monkeypatch):
    # after a fill the Haar generator is continued where it stopped; any other use of it
    # (a caller's draw, a shot stream, a failed fill) sends the next call to its saved
    # state and an advance, so every draw is that of a generator built fresh at its word
    monkeypatch.setattr(_accel, "_STREAMS", threading.local())
    seed, top = 13, 2**63 - 1

    def fill_is_fresh(i, n):
        got = complex_matrices(_accel.ginibre_batch(seed, i, n))
        return np.array_equal(got, [box_muller_sample(seed, i + k) for k in range(n)])

    assert fill_is_fresh(0, 10) and _accel._STREAMS.end == (_accel.HAAR_WORD, 32 * 10)
    assert fill_is_fresh(10, 5)
    # a caller draws 7 words at the recorded word: the fill there starts over
    gen = _accel.stream(seed, _accel.HAAR_WORD, 32 * 15)
    assert _accel._STREAMS.end is None
    assert np.array_equal(gen.random(7), fresh_stream(seed, _accel.HAAR_WORD, 32 * 15).random(7))
    assert fill_is_fresh(15, 2)
    # a shot stream of another key between two sequential fills
    assert _accel.stream(seed, 3).binomial(100, 0.5) == fresh_stream(seed, 3).binomial(100, 0.5)
    assert fill_is_fresh(17, 3)
    # fills that raised on a bad buffer, at the recorded word and elsewhere
    for start in (20, 4):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(seed, start, 4, 4, np.empty((4, 2, 4, 3)))
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(seed, start, 4, 4, None, np.empty(32 * 4 - 1))
        assert fill_is_fresh(20, 4)
    # the last sample, an advance of ~2**68 words, continued and then restored
    assert fill_is_fresh(top - 3, 3) and fill_is_fresh(top, 1)
    assert fill_is_fresh(0, 1)
    u = haar_unitary(HaarSampler(seed, top))
    assert np.max(np.abs(u - qr_gauge_haar(box_muller_sample(seed, top)[None])[0])) <= 1e-12


def test_only_accel_builds_a_generator():
    # every stream comes from _accel.stream: no other module names a bit generator,
    # a seed sequence or default_rng, as a name, an attribute or an import
    src = pathlib.Path(_accel.__file__).parent
    named = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
            named.setdefault(path.name, set()).update(_GENERATOR_NAMES.intersection(names))
    assert named.pop("_accel.py") == {"PCG64DXSM", "SeedSequence"}
    assert len(named) >= 8 and not any(named.values()), named


def test_stream_threads_keep_their_own_generators():
    # three threads ask for the same keys at other words, and each draws only after
    # all have asked: with one shared generator per key, all but the last to ask would
    # draw at its word, and a shared seed would drop the others' generators
    plans = [[(1, 0), (2, 5), (1, 9), (1, 2**64 + 1)],
             [(1, 3), (1, 4), (2, 5), (2, 32 * (2**63 - 1))],
             [(2, 1), (1, 4), (3, 0), (1, 7)]]
    sync = threading.Barrier(len(plans), timeout=30)
    got = [[] for _ in plans]

    def draw(plan, out):
        for seed, counter in plan:
            sync.wait()
            gen = _accel.stream(seed, _accel.HAAR_WORD, counter)
            sync.wait()
            out.append(gen.random(32))

    threads = [threading.Thread(target=draw, args=args) for args in zip(plans, got)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for plan, draws in zip(plans, got):
        assert len(draws) == len(plan)
        for (seed, counter), u in zip(plan, draws):
            assert np.array_equal(u, fresh_stream(seed, _accel.HAAR_WORD, counter).random(32))


def test_haar_from_ginibre_unitary():
    gin = _accel.ginibre_batch(17, 0, 50)
    us = complex_matrices(_accel.haar_from_ginibre(gin))
    eye = np.broadcast_to(np.eye(4), us.shape)
    assert np.allclose(us @ us.conj().transpose(0, 2, 1), eye, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 17, 2**63 - 1])
def test_haar_from_ginibre_matches_the_qr_gauge_oracle(seed):
    # haar_from_ginibre overwrites its input, so the oracle gets a draw of its own
    gin = complex_matrices(_accel.ginibre_batch(seed, 0, 4096))
    # the planar path
    planar = complex_matrices(_accel.haar_from_ginibre(_accel.ginibre_batch(seed, 0, 4096)))
    assert np.max(np.abs(planar - qr_gauge_haar(gin))) <= 1e-12
    # and the one-matrix path, as haar_unitary draws it
    for i in (0, 1, 4095):
        single = complex_matrices(_accel.haar_from_ginibre(_accel.ginibre_batch(seed, i, 1)))
        assert np.max(np.abs(single - qr_gauge_haar(gin[i:i + 1]))) <= 1e-12
        assert np.array_equal(haar_unitary(HaarSampler(seed, i)), single[0])


def test_a_reused_buffer_draws_what_a_fresh_call_draws():
    # each call finds the memory dirty from the call before, as the engine's chunks do
    work = np.empty(WORK_WORDS * 64)
    scratch_buf, q_buf = np.empty(32 * 64), np.empty(32 * 64)
    for start, n in ((0, 64), (64, 64), (5, 1), (3, 17)):
        scratch, q = scratch_buf[:32 * n], q_buf[:32 * n].reshape(4, 2, 4, n)
        gin = _accel.ginibre_batch(41, start, n, 4, q, scratch)
        fresh = _accel.ginibre_batch(41, start, n)
        assert np.shares_memory(gin, q_buf) and np.array_equal(gin, fresh)
        us = _accel.haar_from_ginibre(gin, scratch)
        assert us is gin and us.shape == (n, 4, 4, 2)
        assert np.array_equal(us, _accel.haar_from_ginibre(fresh))
        # the engine's gauged three-column draw in its dirty work array: a fresh one's bits
        planes = haar_planes(HaarSampler(41, start), n, work[:WORK_WORDS * n], 3)
        assert np.shares_memory(planes, work)
        assert same_bits(planes, haar_planes(HaarSampler(41, start), n, None, 3))
        fresh3 = _accel.haar_from_ginibre(_accel.ginibre_batch(41, start, n, 3))
        assert same_bits(planes, fresh3.transpose(2, 3, 1, 0))
        assert np.array_equal(haar_unitaries(HaarSampler(41, start), n), complex_matrices(us))
    for out in (np.empty((4, 2, 4, 3)), np.empty((4, 2, 4, 4), dtype=np.complex128),
                np.empty((4, 4, 2, 4)).swapaxes(-1, -3), np.empty((3, 2, 4, 4))):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(41, 0, 4, 4, out)
    for scratch in (np.empty(32 * 4 - 1), np.empty(32 * 4, dtype=np.complex64),
                    np.empty(64 * 4)[::2], np.empty((32, 4))):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(41, 0, 4, 4, None, scratch)
        with pytest.raises(ValidationError):
            _accel.haar_from_ginibre(_accel.ginibre_batch(41, 0, 8), scratch)
    # haar_from_ginibre orthonormalizes the planes in place, so it takes nothing else
    gin = _accel.ginibre_batch(41, 0, 8)
    for wrong in (np.ascontiguousarray(gin), gin[1:], gin[..., :1], gin.astype(np.float32)):
        with pytest.raises(ValidationError):
            _accel.haar_from_ginibre(wrong)
    for work in (np.empty(WORK_WORDS * 4 - 1), np.empty(WORK_WORDS * 4, dtype=np.complex128),
                 np.empty(2 * WORK_WORDS * 4)[::2], np.empty((WORK_WORDS, 4))):
        with pytest.raises(ValidationError):
            haar_planes(HaarSampler(41), 4, work, 3)
    # four columns need 8 more words per sample than the engine's three
    with pytest.raises(ValidationError):
        haar_planes(HaarSampler(41), 4, np.empty(WORK_WORDS * 4))


def test_second_pass_keeps_an_ill_conditioned_draw_unitary():
    # column 3 is column 2 plus 1e-8 of noise: one Gram-Schmidt pass leaves ~1e-8
    # of column 2 in column 3, the second pass removes it
    gin = _accel.ginibre_batch(23, 0, 4096)
    rng = np.random.default_rng(23)
    noise = np.stack([rng.standard_normal((4096, 4)), rng.standard_normal((4096, 4))], axis=-1)
    gin[:, :, 3] = gin[:, :, 2] + 1e-8 * noise
    us = complex_matrices(_accel.haar_from_ginibre(gin))
    assert np.max(np.abs(us.conj().transpose(0, 2, 1) @ us - np.eye(4))) <= 1e-12


@pytest.mark.parametrize("seed", [31, 2**63 - 1])
@pytest.mark.parametrize("n", [2, 5, _accel.PLANAR_MIN - 1, _accel.PLANAR_MIN,
                               _accel.PLANAR_MIN + 1, CHUNK - 1, CHUNK + 1])
def test_planar_gram_schmidt_matches_the_scalar_one(n, seed):
    # haar_from_ginibre takes the scalar path below PLANAR_MIN samples and the planar one
    # from there on; called directly, the planar one gives the scalar bits at any n
    q = _accel.ginibre_batch(seed, 1000, n).transpose(2, 3, 1, 0).copy()
    singles = [_accel._orthonormalize_one(q[..., i].tolist()) for i in range(n)]
    _accel._orthonormalize_planes(q, np.empty(32 * n))
    assert np.array_equal(np.moveaxis(q, -1, 0), np.array(singles))
    assert np.array_equal(_accel.haar_from_ginibre(_accel.ginibre_batch(seed, 1000, n)),
                          q.transpose(3, 2, 0, 1))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 672, 1024])
def test_three_columns_are_the_first_three_of_four(n):
    # the engine's three columns are gauged by row, with the Ginibre bits of the gauged
    # oracle's four; column j of Gram-Schmidt reads only columns 0..j, so its unitaries
    # are the first three columns of those four, bit for bit, on the scalar path (n < 8)
    # and the planar ones, through haar_from_ginibre and through each orthonormalization
    three = _accel.ginibre_batch(17, 300, n, 3)
    q3, q4 = three.transpose(2, 3, 1, 0).copy(), planes_of(gauged_ginibre(17, 300, n))
    assert same_bits(q3, q4[:3])
    for i in range(n):
        assert same_bits(np.array(_accel._orthonormalize_one(q3[..., i].tolist())),
                         np.array(_accel._orthonormalize_one(q4[..., i].tolist()))[:3])
    short = q3.copy()
    _accel._orthonormalize_gauged(short, np.empty(21 * n))
    for q in (q4, q3):
        _accel._orthonormalize_planes(q, np.empty(31 * n))
    assert same_bits(q3, q4[:3]) and same_bits(short, q3)
    assert same_bits(_accel.haar_from_ginibre(three), q4[:3].transpose(3, 2, 0, 1))
    assert same_bits(haar_planes(HaarSampler(17, 300), n, None, 3), q4[:3])


@pytest.mark.parametrize("n", [8, 9, 672, 1024])
def test_the_gauged_gram_schmidt_has_the_general_bits(n):
    # on gauged planes the short path skips the products with column 0's zero imaginary
    # plane, to which the general path adds zeros: the same bits, signed zeros included,
    # and those of the scalar path.  Sample 1 gets a zero radius (uniform u = 0) in column
    # 0, so a_r x_r + 0 y_r is a signed zero in its row 2, and sample 2 one in column 1
    q = _accel.ginibre_batch(5, 0, n, 3).transpose(2, 3, 1, 0).copy()
    q[0, 0, 2, 1] = 0.0
    q[1, :, 3, 2] *= 0.0
    short, general = q.copy(), q.copy()
    _accel._orthonormalize_gauged(short, np.full(21 * n, np.nan))
    _accel._orthonormalize_planes(general, np.full(31 * n, np.nan))
    assert same_bits(short, general)
    singles = np.array([_accel._orthonormalize_one(q[..., i].tolist()) for i in range(n)])
    assert same_bits(np.moveaxis(short, -1, 0), singles)
    assert short[0, 0, 2, 1] == 0.0 and not short[0, 1].any()
    gin = _accel.haar_from_ginibre(q.transpose(3, 2, 0, 1))
    assert same_bits(gin, short.transpose(3, 2, 0, 1))


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_the_engine_measures_the_haar_unitaries_up_to_a_row_phase(seed):
    # the engine's draw is DU, D_r = exp(-2 pi i u'_r0) the phase of Ginibre entry (r, 0),
    # for the U of haar_unitaries, up to rounding; P = |DUC|^2 = |UC|^2
    n = 1024
    us = haar_unitaries(HaarSampler(seed), n)
    whole = haar_planes(HaarSampler(seed), n, None, 3)
    angle0 = fresh_stream(seed, _accel.HAAR_WORD).random(32 * n)[1::8]  # u' of entries (r, 0)
    phase = np.exp(-2j * np.pi * angle0)
    du = complex_matrices(whole.transpose(3, 2, 0, 1))
    assert np.max(np.abs(du - phase.reshape(n, 4, 1) * us[..., :3])) <= 5e-15
    want = np.abs(us @ canonical_basis().vectors.T) ** 2
    assert np.max(np.abs(engine._canonical_p(whole).transpose(2, 1, 0) - want)) <= 2e-15
    # chunks of any size concatenate to the whole draw bit for bit
    for m in (1, 7, 8, 1024):
        parts = [haar_planes(HaarSampler(seed, s), min(m, n - s), None, 3)
                 for s in range(0, n, m)]
        assert same_bits(np.concatenate(parts, axis=-1), whole)


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_the_half_angle_draw_is_stream_6s_to_rounding(seed):
    # stream 7 turns the engine's gauged entries by tan(pi d) where stream 6 took
    # cos(2 pi d) and sin(2 pi d): the same law, and the same entries and P to rounding
    n = 1024
    trig = gauged_ginibre_trig(seed, 0, n)[..., :3]
    gin = complex_matrices(_accel.ginibre_batch(seed, 0, n, 3))
    assert np.max(np.abs(gin - trig)) <= 2e-15
    planes = planes_of(trig)
    _accel.haar_from_ginibre(planes.transpose(3, 2, 0, 1))
    whole = haar_planes(HaarSampler(seed), n, None, 3)
    assert np.max(np.abs(engine._canonical_p(whole) - engine._canonical_p(planes))) <= 2e-15


@pytest.mark.parametrize("seed", [1, 7])
def test_the_unitaries_keep_stream_8s_bits(seed):
    batch, single = UNITARY_DIGESTS[seed]
    assert hashlib.sha256(haar_unitaries(HaarSampler(seed), 64).tobytes()).hexdigest() == batch
    assert hashlib.sha256(haar_unitary(HaarSampler(seed, 3)).tobytes()).hexdigest() == single


@pytest.mark.parametrize("seed", [1, 7])
def test_the_engine_draw_keeps_stream_8s_bits(seed):
    planes = haar_planes(HaarSampler(seed), 64, None, 3)
    assert hashlib.sha256(planes.tobytes()).hexdigest() == ENGINE_DIGESTS[seed]


def test_the_readme_names_the_stream_version():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    versions = re.findall(r"This is stream version (\d+)", readme.read_text(encoding="utf-8"))
    assert versions == [str(_accel.STREAM_VERSION)]
