"""Haar stream (version 6): layout, random access, seed range, the per-thread rewound
generators, the planar Box-Muller, the Gram-Schmidt step, the engine's row-gauged
three-column draw, and the unitaries' pinned bits."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from qmcool import (EngineConfig, HaarSampler, ValidationError, _accel, canonical_basis,
                    engine, frequency_sweep, haar_average_report, haar_unitaries)
from qmcool.engine import CHUNK, _haar_chunks
from qmcool.measure import WORK_WORDS, haar_planes, haar_unitary

from helpers import (box_muller_sample, complex_matrices, fresh_stream, gauged_ginibre,
                     planes_of, qr_gauge_haar, same_bits)

# SHA-256 of haar_unitaries(HaarSampler(seed), 64) and haar_unitary(HaarSampler(seed, 3)),
# as bytes, recorded at stream version 5 (numpy 2.4, x86-64 with AVX-512): tomography's
# haar_i bases and every single-basis draw read U's phases, which only the engine's
# row-gauged draw may drop
UNITARY_DIGESTS = {
    1: ("d96b6d74839d126cd672d794214e2d760a521ec9e29816846fd3dfa35a9f84c3",
        "7f4c17f00ece3ed41fd978f3367ccbdd9db12b1c64bef5ba570221d2dc28ed73"),
    7: ("6427ac735bec241f70d9751b5022a293658a17d17b165b7175dededb1791d4f8",
        "00439d63166ab161006252621680048c898c145176e2249a4ff49a5e47ed3186"),
}


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
    # the sample index lives in Philox's 256-bit counter, so the top of the range is valid
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
    # numpy passes Philox keys >= 2**63 through float64, which aliases seeds
    with pytest.raises(ValidationError):
        _accel.ginibre_batch(2**63, 0, 2)
    # a counter past 2**63 - 1 no longer reaches a key, so it cannot alias one
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


def test_stream_draws_what_a_fresh_philox_draws():
    # interleaved seeds, words and counters, counters past 2**64 included: each call
    # rewinds and advances the key's one generator, and draws what a freshly built one
    # at that counter draws
    rng = np.random.default_rng(11)
    seeds, words = (0, 3, 2**63 - 1), (0, 1, 15, _accel.HAAR_WORD)
    counters = (0, 1, 8, 8 * 4095, 2**64 + 5, 8 * (2**63 - 1))
    for _ in range(600):
        seed, word, counter = (v[rng.integers(len(v))] for v in (seeds, words, counters))
        gen = _accel.stream(seed, word, counter)
        assert np.array_equal(gen.random(37), fresh_stream(seed, word, counter).random(37))
        # one generator per key, for the last seed asked for
        assert _accel.stream(seed, word) is gen
        assert set(_accel._STREAMS.keys) <= set(words) and _accel._STREAMS.seed == seed


def test_stream_threads_keep_their_own_generators():
    # three threads ask for the same keys at other counters, and each draws only after
    # all have asked: with one shared generator per key, all but the last to ask would
    # draw at its counter, and a shared seed would drop the others' generators
    plans = [[(1, 0), (2, 5), (1, 9), (1, 2**64 + 1)],
             [(1, 3), (1, 4), (2, 5), (2, 8 * (2**63 - 1))],
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


@pytest.mark.parametrize("seed", [1, 7])
def test_the_unitaries_keep_stream_5s_bits(seed):
    batch, single = UNITARY_DIGESTS[seed]
    assert hashlib.sha256(haar_unitaries(HaarSampler(seed), 64).tobytes()).hexdigest() == batch
    assert hashlib.sha256(haar_unitary(HaarSampler(seed, 3)).tobytes()).hexdigest() == single
