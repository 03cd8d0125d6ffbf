"""Haar stream (version 9): layout, random access, seed range, the stream keys, the
per-thread generators positioned by advance or continued after a fill, the row-gauged
Box-Muller by the half angle on three or four columns, the gauged Gram-Schmidt against
its scalar oracle, the row phase, and the pinned bits of the unitaries and of the
engine's draw per dispatch target, in this process and under numpy's X86_V3 loops."""

import ast
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from qmcool import (EngineConfig, HaarSampler, ValidationError, _accel, canonical_basis,
                    engine, frequency_sweep, haar_average_report, haar_unitaries)
from qmcool.engine import CHUNK, _haar_chunks
from qmcool.measure import UNITARY_WORDS, WORK_WORDS, haar_planes, haar_unitary

from helpers import (box_muller_sample, complex_matrices, fresh_stream, gauged_ginibre,
                     gauged_ginibre_trig, general_gram_schmidt, planes_of, qr_gauge_haar,
                     same_bits, scalar_gram_schmidt)

# The draw's bits depend on numpy's log1p and tan loops, which differ between its
# dispatch targets, so each digest is recorded per target (numpy 2.4 on x86-64): X86_V4
# (AVX-512), numpy's pick on a CPU that has it, and X86_V3 (AVX2), also in a process run
# with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" on such a CPU.
# SHA-256 of haar_unitaries(HaarSampler(seed), 64) and haar_unitary(HaarSampler(seed, 3)),
# as bytes, recorded at stream version 9: tomography's haar_i bases and every
# single-basis draw read U's phases, which only the engine's row-gauged draw may drop
UNITARY_DIGESTS = {
    "X86_V4": {
        1: ("402bfd68913adc3104573129eb304052a411abd2041acf214a753d5699c76f93",
            "2f21bec5af2be2bddf385e03688b0812d9aba5cfd678a20a2e1a5abe628f9e63"),
        7: ("816c6485b4491569c8fdc4951422e48905710bb3a5021078879b919f5f1ebd11",
            "9f4782ea511e9bdbd521a1243bcc031b63f218c06eb3c0698d7d1cc616bf424a"),
    },
    "X86_V3": {
        1: ("b79c1603f81da17123a69533a34dc76694e52c12f349dc5c450774be5d7136d1",
            "2f21bec5af2be2bddf385e03688b0812d9aba5cfd678a20a2e1a5abe628f9e63"),
        7: ("9afd0dfca19a882cb9fd73b0430fdc0a0c18ef4d3ed80dc6f007ee40e8048a0d",
            "9f4782ea511e9bdbd521a1243bcc031b63f218c06eb3c0698d7d1cc616bf424a"),
    },
}
# SHA-256 of the engine's draw haar_planes(HaarSampler(seed), 64), as bytes:
# stream version 9 keeps the engine's bits of version 8 (X86_V4 recorded at version 8)
ENGINE_DIGESTS = {
    "X86_V4": {1: "33a324c7b884a0a35d467e0c4322152ab654e875ae3dcefa63938e84ac95f10d",
               7: "d70eb9d1882974d6859402aa503620e38e31d712545d554917f524f8d9b64bb6"},
    "X86_V3": {1: "51449c9ef7d1c29f0098373b407906d329d13802f2e755876de03eb5ccaf04c6",
               7: "83b6e43c8f5617edb42efa37b3a1b38b7d0db6379b49a02f129d78767f7f8dcb"},
}
# the names that build a generator; only _accel.stream may use them
_GENERATOR_NAMES = {"Philox", "PCG64DXSM", "SeedSequence", "default_rng"}


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
@pytest.mark.parametrize("i", [0, 1, 31, 4096])
def test_ginibre_layout_matches_box_muller_oracle(seed, i):
    # every draw is gauged by row: Box-Muller, then row r turned by minus its entry (r, 0)
    assert same_bits(complex_matrices(_accel.ginibre_batch(seed, i, 1)),
                     gauged_ginibre(seed, i, 1)[..., :3])


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
@pytest.mark.parametrize("n", [7, 8, 672])
def test_planar_box_muller_matches_the_oracle(seed, n):
    # Box-Muller runs on the planes at any n, gauged by row: every column of every sample
    # gets the gauged oracle's bits, signed zeros included
    gin = complex_matrices(_accel.ginibre_batch(seed, 40, n))
    assert gin.shape == (n, 4, 3)
    for i in (0, n // 2, n - 1):
        assert same_bits(gin[i], gauged_ginibre(seed, 40 + i, 1)[0][:, :3])


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
def test_four_planar_columns_have_the_oracle_bits_and_keep_the_row_phase(seed):
    # a four-column buffer draws all four gauged columns of the oracle, whose first
    # three are the three-column draw's, and leaves u'_r0 of every row, the row phase,
    # in the scratch's last 4n words, sample by sample
    for start, n in ((0, 1), (0, 3000), (2**40 + 5, 7), (2**63 - 1, 1)):
        scratch, out = np.empty(32 * n), np.empty((4, 2, 4, n))
        gin = _accel.ginibre_batch(seed, start, n, out, scratch)
        assert gin.shape == (n, 4, 4, 2) and np.shares_memory(gin, out)
        assert same_bits(out, planes_of(gauged_ginibre(seed, start, n)))
        assert same_bits(out[:3], _accel.ginibre_batch(seed, start, n).transpose(2, 3, 1, 0))
        u = fresh_stream(seed, _accel.HAAR_WORD, 32 * start).random(32 * n)
        assert same_bits(scratch[28 * n:].reshape(4, n).T.ravel(), u[1::8])


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
    assert _accel.ginibre_batch(1, 2**63 - 1, 2).shape == (2, 4, 3, 2)
    assert _accel.ginibre_batch(2**63 - 1, 2**63 - 2, 2).shape == (2, 4, 3, 2)
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
    # every call restores the key's saved state and advances it, so whatever came before
    # (a fill, a caller's draw, a shot stream, a failed fill) each draw is that of a
    # generator built fresh at its word
    monkeypatch.setattr(_accel, "_STREAMS", threading.local())
    seed, top = 13, 2**63 - 1

    def fill_is_fresh(i, n):
        return same_bits(complex_matrices(_accel.ginibre_batch(seed, i, n)),
                         gauged_ginibre(seed, i, n)[..., :3])

    assert fill_is_fresh(0, 10)
    assert fill_is_fresh(10, 5)
    # a caller draws 7 words where the last fill ended: the fill there starts over
    gen = _accel.stream(seed, _accel.HAAR_WORD, 32 * 15)
    assert np.array_equal(gen.random(7), fresh_stream(seed, _accel.HAAR_WORD, 32 * 15).random(7))
    assert fill_is_fresh(15, 2)
    # a shot stream of another key between two sequential fills
    assert _accel.stream(seed, 3).binomial(100, 0.5) == fresh_stream(seed, 3).binomial(100, 0.5)
    assert fill_is_fresh(17, 3)
    # fills that raised on a bad buffer, where the last fill ended and elsewhere
    for start in (20, 4):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(seed, start, 4, np.empty((3, 2, 4, 3)))
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(seed, start, 4, None, np.empty(32 * 4 - 1))
        assert fill_is_fresh(20, 4)
    # the last samples, an advance of ~2**68 words, then the one right after that fill
    assert fill_is_fresh(top - 3, 3) and fill_is_fresh(top, 1)
    assert fill_is_fresh(0, 1)
    u = haar_unitary(HaarSampler(seed, top))
    assert np.max(np.abs(u - qr_gauge_haar(box_muller_sample(seed, top)[None])[0])) <= 1e-12


def test_a_skip_of_0_restores_without_an_advance(monkeypatch):
    # a restore to word 0, as each of tomography's probes makes, takes the saved state as
    # it is: advance(0) moves nothing and costs ~0.5 us.  The draw is a fresh stream's
    words = (0, 5, _accel.HAAR_WORD)
    want = {word: fresh_stream(21, word).random(9) for word in words}
    advances = []

    class Counted(np.random.PCG64DXSM):
        def advance(self, delta):
            advances.append(delta)
            return super().advance(delta)

    monkeypatch.setattr(_accel, "_STREAMS", threading.local())
    monkeypatch.setattr(np.random, "PCG64DXSM", Counted)
    for _ in range(3):
        for word in words:
            assert np.array_equal(_accel.stream(21, word).random(9), want[word])
    assert advances == []
    got = _accel.stream(21, 5, 9).random(9)
    assert advances == [9] and np.array_equal(got, fresh_stream(21, 5, 9).random(9))


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
    # four gauged columns, as the tests' gauged_unitaries hands them over
    gin = planes_of(gauged_ginibre(17, 0, 50)).transpose(3, 2, 0, 1)
    us = complex_matrices(_accel.haar_from_ginibre(gin))
    eye = np.broadcast_to(np.eye(4), us.shape)
    assert np.allclose(us @ us.conj().transpose(0, 2, 1), eye, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 17, 2**63 - 1])
def test_haar_from_ginibre_matches_the_qr_gauge_oracle(seed):
    # four gauged columns, as the tests' gauged_unitaries hands them over, and the
    # engine's three, in a block and one by one; haar_from_ginibre overwrites its input
    gin = gauged_ginibre(seed, 0, 4096)
    want = qr_gauge_haar(gin)
    planar = complex_matrices(_accel.haar_from_ginibre(planes_of(gin).transpose(3, 2, 0, 1)))
    assert np.max(np.abs(planar - want)) <= 1e-12
    three = complex_matrices(_accel.haar_from_ginibre(_accel.ginibre_batch(seed, 0, 4096)))
    assert np.max(np.abs(three - want[..., :3])) <= 1e-12
    # haar_unitary turns its rows back to the ungauged draw's U
    for i in (0, 1, 4095):
        single = complex_matrices(_accel.haar_from_ginibre(_accel.ginibre_batch(seed, i, 1)))
        assert np.max(np.abs(single - want[i:i + 1, :, :3])) <= 1e-12
        u = qr_gauge_haar(box_muller_sample(seed, i)[None])[0]
        assert np.max(np.abs(haar_unitary(HaarSampler(seed, i)) - u)) <= 1e-12


def test_a_reused_buffer_draws_what_a_fresh_call_draws():
    # each call finds the memory dirty from the call before, as the engine's chunks do
    work = np.empty(WORK_WORDS * 64)
    scratch_buf, q_buf = np.empty(32 * 64), np.empty(24 * 64)
    for start, n in ((0, 64), (64, 64), (5, 1), (3, 17)):
        scratch, q = scratch_buf[:32 * n], q_buf[:24 * n].reshape(3, 2, 4, n)
        gin = _accel.ginibre_batch(41, start, n, q, scratch)
        fresh = _accel.ginibre_batch(41, start, n)
        assert np.shares_memory(gin, q_buf) and np.array_equal(gin, fresh)
        us = _accel.haar_from_ginibre(gin, scratch)
        assert us is gin and us.shape == (n, 4, 3, 2)
        assert np.array_equal(us, _accel.haar_from_ginibre(fresh))
        # the engine's draw in its dirty work array: a fresh one's bits
        planes = haar_planes(HaarSampler(41, start), n, work[:WORK_WORDS * n])
        assert np.shares_memory(planes, work)
        assert same_bits(planes, haar_planes(HaarSampler(41, start), n))
        assert same_bits(planes, us.transpose(2, 3, 1, 0))
    for out in (np.empty((3, 2, 4, 3)), np.empty((3, 2, 4, 4), dtype=np.complex128),
                np.empty((3, 4, 2, 4)).transpose(0, 2, 3, 1), np.empty((4, 2, 4, 3)),
                np.empty((2, 2, 4, 4)), np.empty((5, 2, 4, 4))):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(41, 0, 4, out)
    for scratch in (np.empty(32 * 4 - 1), np.empty(32 * 4, dtype=np.complex64),
                    np.empty(64 * 4)[::2], np.empty((32, 4))):
        with pytest.raises(ValidationError):
            _accel.ginibre_batch(41, 0, 4, None, scratch)
        with pytest.raises(ValidationError):
            _accel.haar_from_ginibre(_accel.ginibre_batch(41, 0, 8), scratch)
    # haar_from_ginibre orthonormalizes the planes in place, so it takes nothing else
    gin = _accel.ginibre_batch(41, 0, 8)
    for wrong in (np.ascontiguousarray(gin), gin[1:], gin[..., :1], gin.astype(np.float32)):
        with pytest.raises(ValidationError):
            _accel.haar_from_ginibre(wrong)
    for work in (np.empty(WORK_WORDS * 4 - 1), np.empty(WORK_WORDS * 4, dtype=np.complex128),
                 np.empty(2 * WORK_WORDS * 4)[::2], np.empty((WORK_WORDS, 4)),
                 np.empty(UNITARY_WORDS * 4 + 1), np.empty((UNITARY_WORDS, 4))):
        with pytest.raises(ValidationError):
            haar_planes(HaarSampler(41), 4, work)
    # a work array of UNITARY_WORDS n words draws four columns, the first three the
    # engine's, in any dirty memory
    work = np.full(UNITARY_WORDS * 17, np.nan)
    four = haar_planes(HaarSampler(41, 3), 17, work)
    assert four.shape == (4, 2, 4, 17) and np.shares_memory(four, work)
    assert same_bits(four[:3], haar_planes(HaarSampler(41, 3), 17))


def test_second_pass_keeps_an_ill_conditioned_draw_unitary():
    # column 3 is column 2 plus 1e-8 of noise: one Gram-Schmidt pass leaves ~1e-8
    # of column 2 in column 3, the second pass removes it
    gin = planes_of(gauged_ginibre(23, 0, 4096)).transpose(3, 2, 0, 1)
    rng = np.random.default_rng(23)
    noise = np.stack([rng.standard_normal((4096, 4)), rng.standard_normal((4096, 4))], axis=-1)
    gin[:, :, 3] = gin[:, :, 2] + 1e-8 * noise
    us = complex_matrices(_accel.haar_from_ginibre(gin))
    assert np.max(np.abs(us.conj().transpose(0, 2, 1) @ us - np.eye(4))) <= 1e-12


def test_the_unitaries_are_orthonormal_to_the_measured_bound():
    # two passes keep every column orthonormal to a few ulp: max |U^H U - I| over 2**17
    # unitaries of seed 7 reads 7 2^-53, and 6 2^-53 for the engine's three columns, on
    # both dispatch targets; one pass would read ~1e-14 (Giraud, Langou and Rozloznik)
    n = 2**17
    us = haar_unitaries(HaarSampler(7), n)
    three = complex_matrices(haar_planes(HaarSampler(7), n).transpose(3, 2, 0, 1))
    for q in (us, three):
        gram = q.conj().transpose(0, 2, 1) @ q
        assert np.max(np.abs(gram - np.eye(q.shape[2]))) <= 8 * 2.0**-53


def test_a_nearly_dependent_column_rounds_alike_in_a_block_and_alone():
    # sample 1000 of a block gets column 2 = column 1 + 1e-9 of noise: one pass leaves
    # ~1e-7 of column 1 in it and the second takes it out.  The block gives that sample
    # the scalar oracle's bits, and any split of the block into pieces the same bits
    n, i = 2048, 1000
    q = planes_of(gauged_ginibre(29, 0, n))
    noise = np.random.default_rng(29).standard_normal((2, 4))
    q[2, ..., i] = q[1, ..., i] + 1e-9 * noise
    whole = q.copy()
    _accel._orthonormalize_gauged(whole, np.empty(32 * n))
    assert same_bits(whole[..., i], np.array(scalar_gram_schmidt(q[..., i].tolist())))
    u = complex_matrices(whole[..., i:i + 1].transpose(3, 2, 0, 1))[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 8 * 2.0**-53
    # one pass on column 2, from the orthonormal columns 0-1 of the block's result
    v = complex_matrices(q[..., i:i + 1].transpose(3, 2, 0, 1))[0, :, 2]
    once = v - u[:, :2] @ (u[:, :2].conj().T @ v)
    assert np.max(np.abs(u[:, :2].conj().T @ once)) / np.linalg.norm(once) > 1e-9
    for m in (1, 7, 8, 999, 1000, 1001):
        pieces = [q[..., k:k + m].copy() for k in range(0, n, m)]
        for piece in pieces:
            _accel._orthonormalize_gauged(piece, np.empty(32 * piece.shape[-1]))
        assert same_bits(np.concatenate(pieces, axis=-1), whole)


@pytest.mark.parametrize("seed", [31, 2**63 - 1])
@pytest.mark.parametrize("n", [1, 2, 5, 7, 8, 9, CHUNK - 1, CHUNK + 1])
def test_planar_gram_schmidt_matches_the_scalar_one(n, seed):
    # the engine's planar draw of three columns, at any n, is the first three columns of
    # the scalar Gram-Schmidt of the oracle's four gauged columns, bit for bit: column j
    # reads only columns 0..j.  So haar_unitary(HaarSampler(seed, i)) names the basis
    # that the engine's sample i measures in, up to the row phase D
    planes = haar_planes(HaarSampler(seed, 1000), n)
    gin = planes_of(gauged_ginibre(seed, 1000, n))
    singles = [scalar_gram_schmidt(gin[..., i].tolist())[:3] for i in range(n)]
    assert same_bits(np.moveaxis(planes, -1, 0), np.array(singles))


@pytest.mark.parametrize("n", [8, 9, 672, 1024])
def test_the_gauged_gram_schmidt_has_the_general_bits(n):
    # on gauged planes Gram-Schmidt skips the products with column 0's zero imaginary
    # plane, to which the general complex form adds zeros: the same bits, signed zeros
    # included, and those of the scalar oracle.  Sample 1 gets a zero radius (uniform
    # u = 0) in column 0, so a_r x_r + 0 y_r is a signed zero in its row 2, and sample 2
    # one in column 1
    q = planes_of(gauged_ginibre(5, 0, n))
    q[0, 0, 2, 1] = 0.0
    q[1, :, 3, 2] *= 0.0
    short = q.copy()
    _accel._orthonormalize_gauged(short, np.full(32 * n, np.nan))
    general = np.array([general_gram_schmidt(q[..., i].tolist()) for i in range(n)])
    singles = np.array([scalar_gram_schmidt(q[..., i].tolist()) for i in range(n)])
    assert same_bits(np.moveaxis(short, -1, 0), general)
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
    whole = haar_planes(HaarSampler(seed), n)
    angle0 = fresh_stream(seed, _accel.HAAR_WORD).random(32 * n)[1::8]  # u' of entries (r, 0)
    phase = np.exp(-2j * np.pi * angle0)
    du = complex_matrices(whole.transpose(3, 2, 0, 1))
    assert np.max(np.abs(du - phase.reshape(n, 4, 1) * us[..., :3])) <= 5e-15
    want = np.abs(us @ canonical_basis().vectors.T) ** 2
    assert np.max(np.abs(engine._canonical_p(whole).transpose(2, 1, 0) - want)) <= 2e-15
    # chunks of any size concatenate to the whole draw bit for bit
    for m in (1, 7, 8, 1024):
        parts = [haar_planes(HaarSampler(seed, s), min(m, n - s))
                 for s in range(0, n, m)]
        assert same_bits(np.concatenate(parts, axis=-1), whole)


@pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
def test_the_half_angle_draw_is_stream_6s_to_rounding(seed):
    # stream 7 turns the engine's gauged entries by tan(pi d) where stream 6 took
    # cos(2 pi d) and sin(2 pi d): the same law, and the same entries and P to rounding
    n = 1024
    trig = gauged_ginibre_trig(seed, 0, n)[..., :3]
    gin = complex_matrices(_accel.ginibre_batch(seed, 0, n))
    assert np.max(np.abs(gin - trig)) <= 2e-15
    planes = planes_of(trig)
    _accel.haar_from_ginibre(planes.transpose(3, 2, 0, 1))
    whole = haar_planes(HaarSampler(seed), n)
    assert np.max(np.abs(engine._canonical_p(whole) - engine._canonical_p(planes))) <= 2e-15


@pytest.mark.parametrize("seed", [1, 7])
def test_the_unitaries_keep_stream_9s_bits(seed):
    batch, single = _digests(UNITARY_DIGESTS)[seed]
    assert hashlib.sha256(haar_unitaries(HaarSampler(seed), 64).tobytes()).hexdigest() == batch
    assert hashlib.sha256(haar_unitary(HaarSampler(seed, 3)).tobytes()).hexdigest() == single


@pytest.mark.parametrize("seed", [1, 7])
def test_the_engine_draw_keeps_stream_8s_bits(seed):
    planes = haar_planes(HaarSampler(seed), 64)
    assert hashlib.sha256(planes.tobytes()).hexdigest() == _digests(ENGINE_DIGESTS)[seed]


_PIN_DRAWS = """
import hashlib, json
from numpy._core._multiarray_umath import __cpu_features__
from qmcool import HaarSampler, haar_unitaries, haar_unitary
from qmcool.measure import haar_planes
def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()
print(json.dumps([{k: bool(__cpu_features__.get(k)) for k in ("X86_V4", "X86_V3")},
                  {s: [digest(haar_unitaries(HaarSampler(s), 64)),
                       digest(haar_unitary(HaarSampler(s, 3))),
                       digest(haar_planes(HaarSampler(s), 64))] for s in (1, 7)}]))
"""


def test_the_pins_hold_on_numpys_other_dispatch_target():
    # a fresh process with numpy's AVX-512 loops disabled, as tier-1 runs under
    # NPY_DISABLE_CPU_FEATURES, draws the X86_V3 pins: the unitaries in a block, one read
    # ahead, and the engine's draw.  Where this process already runs without AVX-512
    # loops, the child inherits its setting
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(_accel.__file__).parents[1]))
    disable = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f)]
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disable)
    run = subprocess.run([sys.executable, "-c", _PIN_DRAWS], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    features, got = json.loads(run.stdout)
    assert not features["X86_V4"]
    for seed, (batch, single, planes) in got.items():
        assert (batch, single) == _digests(UNITARY_DIGESTS, features)[int(seed)]
        assert planes == _digests(ENGINE_DIGESTS, features)[int(seed)]


def _digests(pins, features=__cpu_features__):
    """The pins recorded for numpy's dispatch target, given its CPU features (by default
    this process's); a target with none fails, by name, rather than skip."""
    target = "X86_V4" if features.get("X86_V4") else "X86_V3"
    if target == "X86_V3" and not features.get("X86_V3"):
        target = "baseline (neither X86_V4 nor X86_V3)"
    assert target in pins, f"no digest is recorded for numpy's {target} loops"
    return pins[target]


def test_the_readme_names_the_stream_version():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    versions = re.findall(r"This is stream version (\d+)", readme.read_text(encoding="utf-8"))
    assert versions == [str(_accel.STREAM_VERSION)]
