"""Distance magic verifiers for labelings of complete multipartite graphs.

Graphs are never stored as edge lists: a complete multipartite graph is
determined by its parts, and vertices are identified with their labels,
so a labeling is just a core.Partition read with block i as part i.
The verifiers work from the partition's block sums alone, which keeps the
k = 2 constructive path viable up to n around 10^6; the explicit
neighbor-by-neighbor summation lives in the tests as an independent
oracle.

verify_distance_magic checks the open condition (neighbor labels sum to
a constant) on the complete multipartite graph itself;
verify_closed_magic_cycle checks the closed condition (own label
included) on the cycle-of-cliques blow-up, where clique i is fully
joined to cliques i-1 and i+1.  Both reduce a labeling to one sum per
part and hand those sums to _agreement, the one test that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Partition


@dataclass(frozen=True)
class MagicCheck:
    """Outcome of a magic-sum verification.

    When magic, constant is the shared neighbor sum and witness is None;
    otherwise witness is a pair of vertices with unequal neighbor sums.
    degenerate marks the k = 3 closed check, where every closed
    neighborhood is the whole vertex set and the condition holds vacuously.
    """

    is_magic: bool
    constant: int | None = None
    witness: tuple[int, int] | None = None
    degenerate: bool = False


def labeling_from_partition(p: Partition) -> Partition:
    """Read a partition as a labeling: block i becomes part i.

    A Partition already is that labeling, so this returns p unchanged.
    """
    return p


def _agreement(p: Partition, part_sums: list[int], degenerate: bool = False) -> MagicCheck:
    """Magic with constant part_sums[0] when every part's sum equals it.

    Otherwise the witness is the least labels of part 0 and of the first
    part whose sum differs.
    """
    for i in range(1, p.k):
        if part_sums[i] != part_sums[0]:
            return MagicCheck(is_magic=False, witness=(p.blocks[0][0], p.blocks[i][0]))
    return MagicCheck(is_magic=True, constant=part_sums[0], degenerate=degenerate)


def verify_distance_magic(p: Partition) -> MagicCheck:
    """Check that all open-neighborhood label sums agree.

    In a complete multipartite graph a vertex in part j sees every label
    except its own part's, so its neighbor sum is n(n+1)/2 - S(part j).
    """
    total = p.n * (p.n + 1) // 2
    return _agreement(p, [total - t for t in p.sums])


def verify_closed_magic_cycle(p: Partition) -> MagicCheck:
    """Check the closed condition on the cycle-of-cliques over p's blocks.

    Clique i carries block i; a vertex there has closed neighborhood
    cliques i-1, i, i+1 (mod k), so its closed sum is the sum of three
    consecutive block sums.  For k = 3 that neighborhood is everything,
    so every closed sum is n(n+1)/2 and the check is degenerate: reported
    magic with that constant.
    Requires k >= 3 for the cycle to be well-defined.
    """
    k = p.k
    if k < 3:
        raise ValueError(f"cycle-of-cliques needs k >= 3, got k={k}")
    closed = [
        p.sums[(i - 1) % k] + p.sums[i] + p.sums[(i + 1) % k] for i in range(k)
    ]
    return _agreement(p, closed, degenerate=(k == 3))
