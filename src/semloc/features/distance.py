"""Exact Euclidean nearest-neighbour search, bit for bit what scipy's cdist gives.

`euclidean` computes a distance in cdist's own order: the differences, their
squares summed left to right over the features, then the square root.
`nearest_neighbours` ranks each query row's train rows by a cheap matrix-
product screen and computes exact distances only where the screen cannot
decide on its own.
"""

from __future__ import annotations

import numpy as np

# A row's screen values carry a rounding error below (d + 2) * u * (|q| + max|t|)^2
# (u = 2**-53; the dot-product bound with Cauchy-Schwarz), and cdist's squared
# distances one below (d + 3) * u * (|q| + max|t|)^2. Two screen values more than
# _AMBIGUOUS_REL * (|q| + max|t|)^2 apart are therefore in the same strict order
# in exact arithmetic and in cdist while 4 * (d + 3) * u stays under
# _AMBIGUOUS_REL, that is up to d of about two million (3e-14 at d = 64).
_AMBIGUOUS_REL = 1e-9
# Multiply-adds per block (rows x train.size). OpenBLAS hands a product of
# about 1e6 of them to a second thread (1,032,192 was threaded, 983,040 was not,
# on 2 cores); a 341-row block against 48 train rows then ran 10 to 40 times slower per
# product than a 170-row one, and whole-array products raised peak RSS by
# 5-10 MB. Half the threshold was meant to keep every block on one thread, but
# the search still takes a second CPU: on a 2-CPU host, 20,000 query rows ran
# at a CPU/wall ratio of about 2.0 both at k = 256 (the CLI vocabulary; blocks
# of 32 rows) and at k = 48 (blocks of 170 rows), while 200,000 rows at k = 48
# ran at 1.0. Which call takes the second CPU is not yet measured.
_BLOCK_PRODUCTS = 2**19


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between the rows of `a` and `b` (the last axis),
    broadcast as `a - b`, with the bits of scipy's cdist."""
    # Reversing the axes puts the features first; a reduction over the leading
    # axis of a C-contiguous array then adds one feature at a time, where one
    # along the contiguous axis would sum pairwise.
    squares = (a - b).T.copy()
    squares *= squares
    return np.sqrt(np.add.reduce(squares, axis=0)).T


def nearest_neighbours(query: np.ndarray, train: np.ndarray, neighbours: int) -> np.ndarray:
    """The `neighbours` train rows nearest each query row, nearest first.

    Row i is ordered as a stable sort orders cdist(query, train)[i], with NaN
    counted as nearest: the lower index wins an exact tie, a train row tied
    with the best comes second, and column 0 is np.argmin's pick. Needs
    1 <= neighbours <= len(train).

    Each block of rows is ranked by the screen |t|^2 - 2 q.t, one matrix
    product per block. The screen's order is exact where each winner lies
    more than the _AMBIGUOUS_REL margin ahead of the next entry of its row.
    A row where it does not (ties, duplicate train rows, cancellation at large
    norms, anything not finite) is ranked on its full row of exact distances.
    """
    index = np.empty((len(query), neighbours), dtype=np.intp)
    # a non-finite or huge input sends rows to the exact ranking; like cdist,
    # the search warns about none of it
    with np.errstate(invalid="ignore", over="ignore"):
        t_squared = np.einsum("ij,ij->i", train, train)
        scale = np.sqrt(np.einsum("ij,ij->i", query, query)) + np.sqrt(t_squared.max())
        margin = _AMBIGUOUS_REL * scale**2
        scaled = -2.0 * train.T  # exact: a power-of-two scale
        rows = max(1, _BLOCK_PRODUCTS // max(1, train.size))
        rank = np.arange(min(rows, len(query)))
        for start in range(0, len(query), rows):
            block = query[start : start + rows]
            block_rank = rank[: len(block)]
            screen = block @ scaled
            screen += t_squared
            winners = index[start : start + rows]
            # the winners in order, then the runner-up to the last of them;
            # gap is the least lead of an entry over the one before it
            for j in range(neighbours + 1):
                nearest = screen.argmin(axis=1)
                value = screen[block_rank, nearest]
                if j:
                    lead = value - previous
                    gap = lead if j == 1 else np.minimum(gap, lead)
                if j < neighbours:
                    winners[:, j] = nearest
                    screen[block_rank, nearest] = np.inf
                    previous = value
            # a non-finite input makes the margin NaN or infinite, and a NaN
            # anywhere fails the comparison
            ambiguous = ~(gap > margin[start : start + rows])
            if ambiguous.any():
                exact = euclidean(block[ambiguous, None, :], train[None, :, :])
                exact[np.isnan(exact)] = -np.inf  # NaN first, as np.argmin has it
                order = np.argsort(exact, axis=1, kind="stable")
                winners[ambiguous] = order[:, :neighbours]
    return index
