"""Scalar term streams as the block streams that the qverify kernels take, and back."""

import itertools

import numpy as np


def blocks(terms, size=5):
    """Blocks of ``size`` consecutive terms of a scalar stream; the last may be shorter."""
    terms = iter(terms)
    while chunk := list(itertools.islice(terms, size)):
        yield np.array(chunk, complex)


def weighted(pairs, size=5):
    """Blocks (t, w) from a stream of scalar (t_k, w_k) pairs: terms and their weights."""
    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, size)):
        yield np.array([t for t, _ in chunk], complex), [float(w) for _, w in chunk]


def flat(stream):
    """The terms of a block stream, one Python complex each."""
    for block in stream:
        yield from block.tolist()
