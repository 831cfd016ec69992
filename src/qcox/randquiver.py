"""Seeded random generation of connected acyclic quivers and homogeneous
bound quivers, used by the verification command and the randomized suites.

All randomness flows through the caller's ``random.Random`` instance, so a
fixed seed reproduces the same quivers bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .quiverdsl import Arrow, BoundQuiver, Path, Quiver, Relation

EXTRA_ARROW_PROB = 0.35     # chance of each arrow beyond the spanning tree
MAX_RELATIONS = 2
RELATION_DEGREES = (2, 3)
MAX_TERMS = 3
COEFF_POOL = tuple(map(Fraction, (-2, -1, 1, 2, Fraction(3, 2))))


def random_acyclic_quiver(rng: random.Random, n_min: int = 3, n_max: int = 7,
                          max_multiplicity: int = 2) -> Quiver:
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
                if rng.random() < EXTRA_ARROW_PROB:
                    if pair not in counts:
                        pairs.append(pair)
                    counts[pair] = counts.get(pair, 0) + 1
    arrows = []
    for pair in sorted(pairs):
        for _ in range(counts[pair]):
            arrows.append(Arrow(f"a{len(arrows)}", pair[0], pair[1]))
    return Quiver(tuple(str(v + 1) for v in range(n)), tuple(arrows))


def random_homogeneous_relations(rng: random.Random, quiver: Quiver) -> BoundQuiver:
    """Attach up to MAX_RELATIONS random homogeneous relations: up to
    MAX_TERMS parallel paths of one length in RELATION_DEGREES, with
    coefficients drawn from COEFF_POOL."""
    arrows = quiver.arrows
    out = [[k for k, a in enumerate(arrows) if a.source == v] for v in range(quiver.n)]
    # paths as (arrows, source, target), one length at a time and in
    # lexicographic arrow order; a Path is made only for a drawn term
    by_block: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
    frontier = [((), v, v) for v in range(quiver.n)]
    for length in range(1, max(RELATION_DEGREES) + 1):
        frontier = [(p + (idx,), source, arrows[idx].target)
                    for p, source, target in frontier for idx in out[target]]
        if length in RELATION_DEGREES:
            for p, source, target in frontier:
                by_block.setdefault((source, target, length), []).append(p)
    blocks = sorted(by_block)
    relations = []
    if blocks:
        for _ in range(rng.randint(0, MAX_RELATIONS)):
            key = blocks[rng.randrange(len(blocks))]
            paths = by_block[key]
            size = rng.randint(1, min(len(paths), MAX_TERMS))
            chosen = sorted(rng.sample(range(len(paths)), size))
            terms = tuple((rng.choice(COEFF_POOL), Path(paths[i], key[0], key[1]))
                          for i in chosen)
            relations.append(Relation(terms))
    return BoundQuiver(quiver, tuple(relations), name="random")


def random_bound_quiver(rng: random.Random, n_min: int = 3, n_max: int = 7) -> BoundQuiver:
    return random_homogeneous_relations(rng, random_acyclic_quiver(rng, n_min, n_max))
