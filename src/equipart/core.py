"""Exact-integer algebra for labeled partitions of [n] = {1, ..., n}.

A partition of [n] into k blocks of sizes p_1 <= ... <= p_k is *equitable*
when every block sums to the magic sum s = n(n+1)/(2k).  The squared
deviation d = sum_i (S(A_i) - s)^2 is zero exactly on equitable
partitions, and exchanging two elements a < b between blocks changes it
by 2t(t - u) with t = b - a and u = S(block of b) - S(block of a),
independently of s.  deviation(), swap() and swap_delta() state that
exchange lemma; no solver route runs it, and the acceptance suite checks
it on random partitions.

Partition is the package's one representation of such a split; read
block i as part i, it is also the labeling of the complete multipartite
graph that the graphs module verifies.  Its constructor is the one place
a partition is built and checked (integer labels, a disjoint cover of
[n]), and the block sums are derived there, never passed in; swap()
builds its result through it too.

All arithmetic is exact integer arithmetic.  Ground sets are capped at
n <= 2^31 so every quantity here stays within signed 64-bit range in
fixed-width ports of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_N = 2**31


def magic_sum(n: int, k: int) -> int | None:
    """Return n(n+1)/(2k) when 2k divides n(n+1), else None.

    This is the sum every block of an equitable k-partition of [n] must
    attain.  Rejects with ValueError an n that is not an int in [1, 2^31],
    and a k that is not an int >= 1 (a float or bool is not).
    """
    _check_n(n)
    _check_count("k", k, 1)
    total = n * (n + 1) // 2
    if total % k != 0:
        return None
    return total // k


def _integral_magic_sum(n: int, k: int) -> int:
    """magic_sum(n, k) for a caller that needs one; ValueError when it is not integral."""
    s = magic_sum(n, k)
    if s is None:
        raise ValueError(f"magic sum is not integral for n={n}, k={k}")
    return s


def _check_n(n) -> None:
    """Reject an n that is not a genuine int (a bool is not) in [1, MAX_N]."""
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise ValueError(f"n must be an integer in [1, {MAX_N}], got {n!r}")


def _check_count(name: str, value, least: int = 0) -> None:
    """Reject a count or budget that is not a genuine int (a bool is not) >= least."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _all_ints(values) -> bool:
    """True when every value is a genuine int; a float or a bool (an int subclass) is not."""
    return set(map(type, values)) <= {int}


def _distinct_count(n: int, blocks) -> int:
    """How many distinct labels the blocks hold, all of them in [1, n].

    One byte of marks per label of [n]; a hash set of n labels would cost
    over 40 bytes each.
    """
    marks = bytearray(n + 1)
    for block in blocks:
        for x in block:
            marks[x] = 1
    return marks.count(1)


@dataclass(frozen=True)
class Instance:
    """A partition problem: split [n] into blocks of the given sizes.

    n and the sizes must be genuine ints (not floats or bools); sizes must
    be non-decreasing, positive, and sum to n; k = len(sizes).
    """

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_n(self.n)
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if not _all_ints(self.sizes):
            raise ValueError(f"sizes must be integers, got {self.sizes}")
        if any(p < 1 for p in self.sizes):
            raise ValueError(f"sizes must be positive, got {self.sizes}")
        if any(a > b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"sizes must be non-decreasing, got {self.sizes}")
        if sum(self.sizes) != self.n:
            raise ValueError(f"sizes sum to {sum(self.sizes)}, expected n={self.n}")

    @classmethod
    def from_sizes(cls, n: int, sizes) -> "Instance":
        """Build an instance, normalizing sizes to non-decreasing order."""
        sizes = tuple(sizes)  # non-ints go unsorted, for the constructor's ValueError
        return cls(n=n, sizes=tuple(sorted(sizes)) if _all_ints(sizes) else sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class Partition:
    """A labeled set-partition of [n] with its block sums.

    The constructor is the one way in, and it checks every partition: n
    and every label must be a genuine int (not a float or bool), and the
    non-empty blocks must cover [n] disjointly.  Each block may be any
    iterable (a range, a generator); it is copied and sorted once and
    stored as an ascending tuple.  The cover is checked with one byte of
    marks per label of [n], allocated only once the labels number exactly
    n, so a short input claiming a huge n is rejected before anything of
    size n exists.  The block sequence keeps its given (input-size) order,
    and sums are derived; they cannot be passed in.  Values are immutable
    and hold nothing but n, the blocks and their sums: every operation
    returns a new partition, so instances may be shared freely between
    workers.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        n = self.n
        _check_n(n)
        blocks = []
        # map's call drops its hold on each input block once list() has
        # copied it: given a consuming iterator (verify's parsed lists),
        # the block is freed before the next one is copied.
        for labels in map(list, self.blocks):
            if not labels:
                raise ValueError("blocks must be non-empty")
            # Types before sorting: a string label would make sort() or
            # sum() raise TypeError, and a float or bool would pass both.
            if not _all_ints(labels):
                raise ValueError("labels must be integers")
            labels.sort()
            blocks.append(tuple(labels))
            del labels  # one list copy of a block at a time
        if not blocks:
            raise ValueError("a partition needs at least one block")
        if any(b[0] < 1 or b[-1] > n for b in blocks):
            raise ValueError(f"labels must lie in [1, {n}]")
        # n labels from [1, n] are exactly [n] when no two are equal.
        if sum(map(len, blocks)) != n or _distinct_count(n, blocks) != n:
            raise ValueError("blocks must be disjoint with union exactly [n]")
        object.__setattr__(self, "blocks", tuple(blocks))
        object.__setattr__(self, "sums", tuple(map(sum, blocks)))

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        """Build a partition from iterables of labels, in any order within a block."""
        return cls(n=n, blocks=blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)


def deviation(p: Partition, s: int) -> int:
    """Squared deviation of the block sums from the target s.

    Zero exactly when every block sums to s.
    """
    return sum((t - s) ** 2 for t in p.sums)


def swap(p: Partition, a: int, b: int) -> Partition:
    """Exchange a and b between their blocks; all block sizes unchanged.

    Requires a < b lying in distinct blocks.  Applying the same swap twice
    returns to the original partition.
    """
    ia, ib = _cross_blocks(p, a, b)
    blocks = list(p.blocks)
    blocks[ia] = [b if x == a else x for x in blocks[ia]]
    blocks[ib] = [a if x == b else x for x in blocks[ib]]
    return Partition.from_blocks(p.n, blocks)


def swap_delta(p: Partition, a: int, b: int) -> int:
    """Change in deviation caused by swap(p, a, b): exactly 2t(t - u).

    Here t = b - a and u = S(block of b) - S(block of a).  The s terms
    cancel, so deviation(swap(p, a, b), s) = deviation(p, s) + delta holds
    for every target s.  Positive iff t > u, zero iff t = u.
    """
    ia, ib = _cross_blocks(p, a, b)
    t = b - a
    return 2 * t * (t - (p.sums[ib] - p.sums[ia]))


def _cross_blocks(p: Partition, a: int, b: int) -> tuple[int, int]:
    """Blocks of a and b, int labels that must satisfy a < b and lie in distinct blocks."""
    ia, ib = (next((i for i, block in enumerate(p.blocks) if x in block), None) for x in (a, b))
    for x, i in ((a, ia), (b, ib)):
        if i is None:
            raise ValueError(f"label {x!r} not in [1, {p.n}]")
    if not _all_ints((a, b)):  # 1.0 or True finds label 1's block by ==
        raise ValueError("labels must be integers")
    if a >= b:
        raise ValueError(f"expected a < b, got a={a}, b={b}")
    if ia == ib:
        raise ValueError(f"{a} and {b} are both in block {ia}")
    return ia, ib
