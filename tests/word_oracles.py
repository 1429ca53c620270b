"""Independent realizations of the library's word orders and counts, for tests only.

The library generates every order with one iterative walker and counts
with the inclusion-exclusion closed form.  These oracles share none of its
code: the Gray order is built by the plain recursion that states the
reflection rule directly, the lexicographic sets come from a scan of the
whole m^n product space, and counts come from a dynamic program over the
word length.  The recursion is one level per digit, so keep n well below
the interpreter's recursion limit.

(The module is not called ``oracles`` because ``perfbench/oracles.py``
already owns that import name on the shared test path.)
"""

from itertools import accumulate, product


def gray_oracle(m, n, k):
    """The reflected two-change ordering of the weight-k words, as a list.

    Words are grouped by leading digit in increasing order; each group
    orders its tails the same way, forward after an even prefix sum and
    backward after an odd one.
    """
    out = []
    _extend(m, n, k, False, (), out)
    return out


def _extend(m, n, k, backwards, prefix, out):
    # Reversal is realized by flipping the iteration direction, never by
    # materializing a sublist and reversing it.
    if k < 0 or k > (m - 1) * n:
        return
    if n == 0:
        out.append(prefix)
        return
    hi = min(m - 1, k)
    digits = range(hi, -1, -1) if backwards else range(hi + 1)
    for i in digits:
        # An odd leading digit flips its group; under reversal the flip
        # applies to the complement, hence the xor.
        _extend(m, n - 1, k - i, backwards ^ (i % 2 == 1), prefix + (i,), out)


def brute_fixed_weight(m, n, k):
    """Weight-k words in ascending lexicographic order, by full product scan."""
    return [w for w in product(range(m), repeat=n) if sum(w) == k]


def brute_weight_range(m, n, p, q):
    """Words with weight in [p, q], ascending, by full product scan."""
    return [w for w in product(range(m), repeat=n) if p <= sum(w) <= q]


def count_oracle(m, n, k):
    """Number of length-n words over {0..m-1} with digit sum k.

    The length recurrence (append one digit at a time) with a sliding-window
    prefix sum.  Each row stops at weight min(k, (m-1)*length), so the cost
    is O(n * k) additions of plain Python ints.
    """
    if k < 0 or k > (m - 1) * n:
        return 0
    row = [1]  # counts by weight for length 0
    for length in range(1, n + 1):
        prefix = list(accumulate(row, initial=0))
        row = [
            prefix[min(w, len(row) - 1) + 1] - prefix[max(0, w - (m - 1))]
            for w in range(min(k, (m - 1) * length) + 1)
        ]
    return row[k]
