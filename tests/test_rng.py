"""Stream keys: `derive_key` is blake2b of "seed|tag", whichever module
provides blake2b."""

import hashlib
import importlib.util
import sys

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
