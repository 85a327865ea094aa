"""Stream keys: `derive_key` is blake2b of "seed|tag", whichever module
provides blake2b.  Draws: `field_vec` is n draws of `field`, and
`nonzero_vec` one `field_vec` or None."""

import hashlib
import importlib.util
import sys

import numpy as np
import pytest

from curvecones import rng
from curvecones.rng import Stream, derive_key

PAIRS = [(0, ""), (1, "curve"), (7, "span-cones|0/w"),
         (2**63 - 1, "secant|3/pq"), (123456789, "ünïcode-tag")]


def hashlib_key(seed, tag):
    digest = hashlib.blake2b(f"{seed}|{tag}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


@pytest.mark.parametrize("seed, tag", PAIRS)
def test_keys_are_hashlib_blake2b_digests(seed, tag):
    assert derive_key(seed, tag) == hashlib_key(seed, tag)
    assert Stream(seed, tag)._state == hashlib_key(seed, tag)


def test_blake2b_is_hashlib_s():
    assert rng.blake2b is hashlib.blake2b


def test_fallback_without_blake2_module(monkeypatch):
    # a fresh copy of the module, loaded where `_blake2` cannot be imported
    monkeypatch.setitem(sys.modules, "_blake2", None)
    spec = importlib.util.spec_from_file_location("rng_fallback",
                                                  rng.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.blake2b is hashlib.blake2b
    for seed, tag in PAIRS:
        assert fallback.derive_key(seed, tag) == hashlib_key(seed, tag)


def test_field_vec_rejection_branch(monkeypatch):
    # at p = 3 * 2**61, 2**64 mod p = 2**62, so a quarter of the draws fall
    # above the last whole multiple of p and are rejected; every value
    # still fits in int64
    p = 3 * 2**61
    n = 200
    calls = {}
    real = Stream.next_u64

    def next_u64(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return real(self)

    monkeypatch.setattr(Stream, "next_u64", next_u64)
    vec, twin = Stream(5, "vec"), Stream(5, "vec")
    got = vec.field_vec(p, n)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert got.tolist() == [twin.field(p) for _ in range(n)]
    assert vec._state == twin._state
    assert calls[id(vec)] == calls[id(twin)] > n
    assert ((0 <= got) & (got < p)).all()
    assert vec.field_vec(p, 0).shape == (0,)


def test_nonzero_vec_is_one_field_vec():
    # at p = 3 and n = 1 about a third of the draws are the zero vector
    vec, twin = Stream(6, "nonzero"), Stream(6, "nonzero")
    kinds = set()
    for _ in range(30):
        want = twin.field_vec(3, 1)
        got = vec.nonzero_vec(3, 1)
        if want.any():
            assert got.tolist() == want.tolist()
        else:
            assert got is None
        kinds.add(got is None)
    assert kinds == {True, False}
    assert vec._state == twin._state
