"""Exact-integer algebra for labeled partitions of [n] = {1, ..., n}.

A partition of [n] into k blocks of sizes p_1 <= ... <= p_k is *equitable*
when every block sums to the magic sum s = n(n+1)/(2k).  The squared
deviation d = sum_i (S(A_i) - s)^2 is the potential driving the local
search: it is zero exactly on equitable partitions, and exchanging two
elements a < b between blocks changes it by 2t(t - u) with t = b - a and
u = S(block of b) - S(block of a), independently of s.

Partition is the package's one representation of such a split; read
block i as part i, it is also the labeling of the complete multipartite
graph that the graphs module verifies.  Its constructor is the one place
a partition is built and checked (integer labels, a disjoint cover of
[n]), and the block sums are derived there, never passed in.  The local
search's mutable view of a partition is _State, the one exchange kernel:
swap() runs it, so the exchange law is tested on the code the search
runs.  The width is read off a class string, one low/exact/high byte per
label (_State.classes); width() and the plateau's weighing of a candidate
share that routine (_class_width).

All arithmetic is exact integer arithmetic.  Ground sets are capped at
n <= 2^31 so every quantity here stays within signed 64-bit range in
fixed-width ports of this module.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property

MAX_N = 2**31

#: Distinguished width value when no high/low element pair exists.
INFINITE_WIDTH = math.inf

#: A label's class byte: its block sums below, at or above the target.
_LOW, _EXACT, _HIGH = b"LEH"

#: A low label, then only exact labels, then a high label.
_GAP = re.compile(rb"LE*H")


def magic_sum(n: int, k: int) -> int | None:
    """Return n(n+1)/(2k) when 2k divides n(n+1), else None.

    This is the sum every block of an equitable k-partition of [n] must
    attain.  Rejects an n that is not an int in [1, 2^31], and k < 1.
    """
    _check_n(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = n * (n + 1) // 2
    if total % k != 0:
        return None
    return total // k


def _check_n(n) -> None:
    """Reject an n that is not a genuine int (a bool is not) in [1, MAX_N]."""
    if type(n) is not int or not 1 <= n <= MAX_N:
        raise ValueError(f"n must be an integer in [1, {MAX_N}], got {n!r}")


def _all_ints(values) -> bool:
    """True when every value is a genuine int; a float or a bool (an int subclass) is not."""
    return set(map(type, values)) <= {int}


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

    @property
    def prefix_sums(self) -> tuple[int, ...]:
        """P_j = p_1 + ... + p_j for j = 1..k."""
        out = []
        acc = 0
        for p in self.sizes:
            acc += p
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class Partition:
    """A labeled set-partition of [n] with its block sums.

    The constructor is the one way in, and it checks every partition: n
    and every label must be a genuine int (not a float or bool), and the
    non-empty blocks must cover [n] disjointly.  It stores each block as
    an ascending tuple, keeps the block sequence in its given (input-size)
    order, and derives sums; they cannot be passed in.  Values are
    immutable: every operation returns a new partition, so instances may
    be shared freely between workers.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        n = self.n
        _check_n(n)
        # Types first: a string label would make sorted() or sum() raise
        # TypeError, and a float or bool would pass both.
        blocks = tuple(map(tuple, self.blocks))
        if not blocks:
            raise ValueError("a partition needs at least one block")
        for block in blocks:
            if not block:
                raise ValueError("blocks must be non-empty")
            if not _all_ints(block):
                raise ValueError("labels must be integers")
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if any(b[0] < 1 or b[-1] > n for b in blocks):
            raise ValueError(f"labels must lie in [1, {n}]")
        # n labels from [1, n] are exactly [n] when no two are equal.
        if sum(map(len, blocks)) != n or len(set().union(*blocks)) != n:
            raise ValueError("blocks must be disjoint with union exactly [n]")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "sums", tuple(map(sum, blocks)))

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        """Build a partition from iterables of labels, in any order within a block."""
        return cls(n=n, blocks=blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @cached_property
    def _block_index(self) -> dict[int, int]:
        return {x: i for i, b in enumerate(self.blocks) for x in b}

    def block_of(self, label: int) -> int:
        """Index of the block containing label."""
        try:
            return self._block_index[label]
        except KeyError:
            raise ValueError(f"label {label} not in [1, {self.n}]") from None


def implements(p: Partition, sizes) -> bool:
    """True when the multiset of block sizes matches the size sequence."""
    return sorted(len(b) for b in p.blocks) == sorted(sizes)


def deviation(p: Partition, s: int) -> int:
    """Squared deviation of the block sums from the target s.

    Zero exactly when every block sums to s.
    """
    return sum((t - s) ** 2 for t in p.sums)


def is_equitable(p: Partition, s: int) -> bool:
    return deviation(p, s) == 0


def swap(p: Partition, a: int, b: int) -> Partition:
    """Exchange a and b between their blocks; all block sizes unchanged.

    Requires a < b lying in distinct blocks.  Applying the same swap twice
    returns to the original partition.
    """
    _cross_blocks(p, a, b)
    state = _State(p)
    state.exchange(a, b)
    return state.partition()


def swap_delta(p: Partition, a: int, b: int, s: int) -> int:
    """Change in deviation caused by swap(p, a, b): exactly 2t(t - u).

    Here t = b - a and u = S(block of b) - S(block of a).  The value does
    not depend on the target s (the s terms cancel); the parameter is kept
    so the contract deviation(swap(p,a,b), s) = deviation(p, s) + delta
    reads off the signature.  Positive iff t > u, zero iff t = u.
    """
    ia, ib = _cross_blocks(p, a, b)
    return _exchange_delta(b - a, p.sums[ib] - p.sums[ia])


def _cross_blocks(p: Partition, a: int, b: int) -> tuple[int, int]:
    """Blocks of a and b, which must satisfy a < b and lie in distinct blocks."""
    if a >= b:
        raise ValueError(f"expected a < b, got a={a}, b={b}")
    ia = p.block_of(a)
    ib = p.block_of(b)
    if ia == ib:
        raise ValueError(f"{a} and {b} are both in block {ia}")
    return ia, ib


def _exchange_delta(t: int, u: int) -> int:
    """The exchange law 2t(t - u): the one delta formula swap_delta and the search share."""
    return 2 * t * (t - u)


def width(p: Partition, s: int) -> int | float:
    """Minimum y - x over y in a high block, x in a low block, y > x.

    INFINITE_WIDTH (math.inf) when no such pair exists; in particular for
    every equitable partition.  Finite values are always >= 1.
    """
    return _State(p).width(s)


class _State:
    """The local search's mutable view of a partition.

    Label x lies in block assign[x]; sums are the block sums and members
    the ascending labels of each block.  exchange() is the one exchange
    kernel: the descent and swap() run it.
    """

    __slots__ = ("n", "assign", "sums", "members")

    def __init__(self, p: Partition) -> None:
        self.n = p.n
        self.assign = [0] * (p.n + 1)
        for i, block in enumerate(p.blocks):
            for x in block:
                self.assign[x] = i
        self.sums = list(p.sums)
        self.members = [list(block) for block in p.blocks]

    def exchange(self, a: int, b: int) -> None:
        """Move a into b's block and b into a's; exchanging twice undoes it."""
        assign, sums, members = self.assign, self.sums, self.members
        ia, ib = assign[a], assign[b]
        t = b - a
        sums[ia] += t
        sums[ib] -= t
        assign[a], assign[b] = ib, ia
        for block, old, new in ((members[ia], a, b), (members[ib], b, a)):
            del block[bisect_left(block, old)]
            insort(block, new)

    def classes(self, s: int) -> bytearray:
        """Byte x is L, E or H as label x's block sums below, at or above s (byte 0: E)."""
        out = bytearray(b"E") * (self.n + 1)
        for block, t in zip(self.members, self.sums):
            c = _LOW if t < s else _HIGH if t > s else _EXACT
            for x in block:
                out[x] = c
        return out

    def width(self, s: int) -> int | float:
        return _class_width(self.classes(s))

    def partition(self) -> Partition:
        return Partition.from_blocks(self.n, self.members)


def _class_width(classes: bytes | bytearray, below: int | float = INFINITE_WIDTH) -> int | float:
    """The width of a class string when it is less than `below`, else `below`.

    The width is the least y - x over a low label x and a high label y > x.
    The nearest such pair has no low or high label between them, so it is a
    match of L E* H, one byte longer than its gap.  The search for a match
    shorter than `below` stops at the first one (at infinite `below`: the
    first L against the last H); only a hit goes on to find the least.
    """
    if below == INFINITE_WIDTH:
        start = classes.find(_LOW)
        if start < 0 or classes.rfind(_HIGH) < start:
            return below
        gap = _GAP
    else:
        if below <= 1:
            return below  # a finite width is at least 1
        gap = re.compile(b"LE{0,%d}H" % (below - 2))
        hit = gap.search(classes)
        if hit is None:
            return below
        start = hit.start()
    return min(m.end() - m.start() for m in gap.finditer(classes, start)) - 1
