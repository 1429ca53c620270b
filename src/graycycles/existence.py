"""Existence of overlap cycles: the gcd rule, the weight-range theorem, witnesses.

The weight-k words of length n over {0..m-1} admit an s-overlap cycle iff
n - s > gcd(n, s), for every weight strictly between 1 and (m-1)*n - 1; a
window of two or more weights always admits one.  The lemmas behind the
rule live here too: prefixes and suffixes, the weight decomposition
k = q*(m-1) + r, block profiles (an s-rotation keeps a word's block weights
up to rotation) and the two words ``witness_non_rotation`` gives when
n - s = gcd(n, s), which no run of s-overlaps can join.

Every verdict is decided by theorem, with no overlap-cycle engine: at the
degenerate weights 0, 1, (m-1)*n - 1 and (m-1)*n a cycle always exists.
The tests check each theorem against the engine's construction.
"""

from __future__ import annotations

import math

from . import _LAZY
from .records import _Record
from .words import Word, _check_overlap, _check_params

TYPE_CHECKING = False  # typing serves type checkers only; see words
if TYPE_CHECKING:
    from typing import Sequence

__all__ = _LAZY["existence"]  # listed in the package, which loads this module lazily

REASON_GCD = "gcd-condition"
REASON_WEIGHT_RANGE = "theorem-weight-range"
REASON_EMPTY = "empty-set"
REASON_DEGENERATE = "degenerate-checked"


def s_prefix(word: Sequence[int], s: int) -> Word:
    """First s digits of the word; s may run from 0 to the full length."""
    if not 0 <= s <= len(word):
        raise ValueError(f"prefix length {s} out of range for word of length {len(word)}")
    return tuple(word[:s])


def s_suffix(word: Sequence[int], s: int) -> Word:
    """Last s digits of the word; s may run from 0 to the full length."""
    if not 0 <= s <= len(word):
        raise ValueError(f"suffix length {s} out of range for word of length {len(word)}")
    return tuple(word[len(word) - s:])


class WeightDecomposition(_Record):
    """k written as q*(m-1) + r with 0 <= r < m-1."""

    q: int
    r: int


def weight_decomposition(k: int, m: int) -> WeightDecomposition:
    """Split k as q*(m-1) + r with 0 <= r < m-1.

    For m == 1 there is no remainder range; only k == 0 decomposes, as (0, 0).
    """
    _check_params(m, 0)
    if k < 0:
        raise ValueError(f"weight must be nonnegative, got {k}")
    if m == 1:
        if k != 0:
            raise ValueError(f"weight {k} impossible over a one-letter alphabet")
        return WeightDecomposition(0, 0)
    return WeightDecomposition(k // (m - 1), k % (m - 1))


class BlockProfile(_Record):
    """Block weights of a word cut into consecutive blocks of length d."""

    d: int
    weights: tuple[int, ...]


def block_profile(word: Sequence[int], s: int) -> BlockProfile:
    """Cut the word into n/gcd(n,s) blocks of length gcd(n,s) and sum each.

    Rotating a word by s steps permutes digits only within this block
    structure, so the multiset of block weights (up to rotation of the block
    sequence) is invariant under s-rotations.  That invariant is what the
    non-existence witness below exploits.
    """
    n = len(word)
    _check_overlap(n, s)
    d = math.gcd(n, s)
    weights = tuple(sum(word[i:i + d]) for i in range(0, n, d))
    return BlockProfile(d, weights)


def is_cyclic_rotation(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff b equals a rotated by some offset.

    Sequences of different lengths are never rotations; two empty sequences
    are rotations of each other.
    """
    ta, tb = tuple(a), tuple(b)
    if len(ta) != len(tb):
        return False
    if not ta:
        return True
    return any(tb == ta[i:] + ta[:i] for i in range(len(ta)))


def witness_non_rotation(m: int, n: int, k: int, s: int) -> tuple[Word, Word]:
    """Two weight-k words whose block profiles are not rotations of each other.

    Defined when n - s = gcd(n, s) and 1 < k < (m-1)*n - 1.  The first word
    packs its weight to the right (zeros, the remainder digit, then maximal
    digits); the second moves one unit of weight from the last digit to the
    first.  That shifts the first and last block weights by +1/-1, and within
    the stated weight window the two profiles can never be aligned by a
    rotation.  Since s-rotations preserve the profile up to rotation, the two
    words can never reach each other in the transition digraph.
    """
    _check_overlap(n, s)
    if n - s != math.gcd(n, s):
        raise ValueError(f"witness requires n-s = gcd(n,s); got n={n}, s={s}")
    if not 1 < k < (m - 1) * n - 1:
        raise ValueError(f"witness requires 1 < k < (m-1)*n - 1; got k={k}")
    dec = weight_decomposition(k, m)
    first = [0] * (n - dec.q - 1) + [dec.r] + [m - 1] * dec.q
    second = list(first)
    second[0] += 1
    second[-1] -= 1
    return tuple(first), tuple(second)


class ExistenceVerdict(_Record):
    """Outcome of an existence check, with the rule that decided it."""

    exists: bool
    reason: str
    detail: str | None = None


def exists_fixed_weight_ocycle(m: int, n: int, k: int, s: int) -> ExistenceVerdict:
    """Does the set of weight-k words of length n admit an s-overlap cycle?

    For weights strictly between 1 and (m-1)*n - 1 the answer is the gcd
    rule: a cycle exists iff n - s > gcd(n, s).  An empty set never has a
    cycle.  At the degenerate weights the answer is always yes:
    - k = 0 or (m-1)*n: the set is one constant word, which overlaps itself.
    - k = 1: the set is the n words with a single 1.  In the transition
      digraph every vertex is balanced, and following out-edges shifts a
      vertex's 1 left by n - s until it leaves, at 0^s: an Euler tour exists.
    - k = (m-1)*n - 1: the digit complement d -> m-1-d maps these words onto
      the weight-1 words and keeps every overlap.
    """
    _check_params(m, n, s=s)
    if k < 0 or k > (m - 1) * n:
        return ExistenceVerdict(False, REASON_EMPTY, detail=f"no weight-{k} words exist")
    if 1 < k < (m - 1) * n - 1:
        d = math.gcd(n, s)
        return ExistenceVerdict(
            n - s > d, REASON_GCD, detail=f"n-s={n - s}, gcd(n,s)={d}"
        )
    if k in (0, (m - 1) * n):
        case = "1 constant word"
    elif k == 1:
        case = f"{n} words with a single 1"
    else:
        case = f"{n} words, the digit complements of the weight-1 words"
    return ExistenceVerdict(True, REASON_DEGENERATE, detail=f"k={k}: {case}")


def exists_weight_range_ocycle(
    m: int, n: int, p: int, q: int, s: int
) -> ExistenceVerdict:
    """Does the set of words with weight in [p, q] admit an s-overlap cycle?

    Always yes for valid parameters (1 <= s < n, 0 <= p < q <= (m-1)*n):
    the slack of even a single extra weight level keeps the transition
    digraph connected.  Parameter violations raise.
    """
    _check_params(m, n, s=s, p=p, q=q)
    return ExistenceVerdict(True, REASON_WEIGHT_RANGE)
