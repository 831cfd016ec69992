"""Seeded random generation of connected acyclic quivers and homogeneous
bound quivers, used by the verification command and the randomized suites.

All randomness flows through the caller's ``random.Random`` instance, so a
fixed seed reproduces the same quivers bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .quiverdsl import Arrow, BoundQuiver, Path, Quiver, Relation


def random_acyclic_quiver(rng: random.Random, n_min: int = 3, n_max: int = 7,
                          max_multiplicity: int = 2, extra_arrow_prob: float = 0.35) -> Quiver:
    """Connected acyclic quiver with n_min..n_max vertices.

    Arrows always point forward along a hidden random topological order, so
    the result is acyclic; a spanning tree keeps it connected.  At most
    ``max_multiplicity`` parallel arrows per ordered vertex pair.
    """
    n = rng.randint(n_min, n_max)
    order = list(range(n))
    rng.shuffle(order)
    counts: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    for k in range(1, n):
        j = rng.randrange(k)
        pair = (order[j], order[k])
        counts[pair] = 1
        pairs.append(pair)
    for j in range(n):
        for k in range(j + 1, n):
            pair = (order[j], order[k])
            budget = max_multiplicity - counts.get(pair, 0)
            for _ in range(budget):
                if rng.random() < extra_arrow_prob:
                    if pair not in counts:
                        pairs.append(pair)
                    counts[pair] = counts.get(pair, 0) + 1
    arrows = []
    for idx, pair in enumerate(sorted(pairs)):
        for copy in range(counts[pair]):
            arrows.append(Arrow(f"a{len(arrows)}", pair[0], pair[1]))
    return Quiver(tuple(str(v + 1) for v in range(n)), tuple(arrows))


def random_homogeneous_relations(rng: random.Random, quiver: Quiver,
                                 max_relations: int = 2,
                                 degrees: tuple[int, ...] = (2, 3),
                                 max_terms: int = 3) -> BoundQuiver:
    """Attach random homogeneous relations (equal-length parallel paths)."""
    arrows = quiver.arrows
    out = [[k for k, a in enumerate(arrows) if a.source == v] for v in range(quiver.n)]
    # paths as (arrows, source, target), one length at a time and in
    # lexicographic arrow order; a Path is made only for a drawn term
    by_block: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    frontier = [((), v, v) for v in range(quiver.n)]
    for length in range(1, max(degrees) + 1):
        frontier = [(p + (idx,), source, arrows[idx].target)
                    for p, source, target in frontier for idx in out[target]]
        if length in degrees:
            for p, source, target in frontier:
                by_block.setdefault((source, target, length), []).append(p)
    blocks = sorted(by_block)
    relations = []
    if blocks:
        for _ in range(rng.randint(0, max_relations)):
            key = blocks[rng.randrange(len(blocks))]
            paths = by_block[key]
            size = rng.randint(1, min(len(paths), max_terms))
            chosen = sorted(rng.sample(range(len(paths)), size))
            coeff_pool = [-2, -1, 1, 2, Fraction(3, 2)]
            terms = tuple((Fraction(rng.choice(coeff_pool)), Path(paths[i], key[0], key[1]))
                          for i in chosen)
            relations.append(Relation(terms))
    return BoundQuiver(quiver, tuple(relations), name="random")


def random_bound_quiver(rng: random.Random, n_min: int = 3, n_max: int = 7,
                        max_multiplicity: int = 2, max_relations: int = 2) -> BoundQuiver:
    quiver = random_acyclic_quiver(rng, n_min, n_max, max_multiplicity)
    return random_homogeneous_relations(rng, quiver, max_relations=max_relations)
