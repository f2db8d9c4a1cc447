"""Containment, reachable containment, counterpart, group (Def. 7-10).

These definitions formalise when one semantic trajectory's pattern is
captured by another.  Algorithm 4 approximates them with per-position
clustering for scale; the exact versions here serve the public API,
tests, and the metric computations that need ground-truth containment
on small inputs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.data.trajectory import SemanticTrajectory, StayPoint
from repro.geo.distance import equirectangular_distance


def _distance(a: StayPoint, b: StayPoint) -> float:
    return equirectangular_distance(a.lon, a.lat, b.lon, b.lat)


def contains(
    st: SemanticTrajectory,
    pattern: SemanticTrajectory,
    eps_t_m: float,
    delta_t_s: float,
) -> Optional[Tuple[int, ...]]:
    """Definition 7: does ``st`` contain ``pattern``?

    Returns the matched index tuple into ``st`` (the sub-trajectory
    ``ST''``) or ``None``.  All three conditions apply:

    i.   pairwise distance of matched stay points <= ``eps_t_m``;
    ii.  consecutive gaps <= ``delta_t_s`` in both the matched
         subsequence and the pattern itself;
    iii. matched semantics are supersets of the pattern's.

    The search is an exhaustive ordered-subsequence match with
    backtracking; trajectories are short so this stays cheap.
    """
    m, n = len(st), len(pattern)
    if m < n or n == 0:
        return None
    # Pattern's own temporal condition (Def. 7 condition ii, right half).
    for j in range(n - 1):
        if abs(pattern[j].t - pattern[j + 1].t) > delta_t_s:
            return None

    def feasible(i: int, j: int) -> bool:
        sp, pp = st[i], pattern[j]
        return (
            _distance(sp, pp) <= eps_t_m
            and sp.semantics >= pp.semantics
        )

    def search(j: int, start: int, chosen: List[int]) -> Optional[Tuple[int, ...]]:
        if j == n:
            return tuple(chosen)
        for i in range(start, m - (n - j) + 1):
            if not feasible(i, j):
                continue
            if chosen and abs(st[chosen[-1]].t - st[i].t) > delta_t_s:
                continue
            result = search(j + 1, i + 1, chosen + [i])
            if result is not None:
                return result
        return None

    return search(0, 0, [])


def counterpart(
    st: SemanticTrajectory,
    pattern: SemanticTrajectory,
    eps_t_m: float,
    delta_t_s: float,
    database: Sequence[SemanticTrajectory] = (),
) -> List[StayPoint]:
    """Counterpart function ``CP(ST, ST')`` (Definition 9).

    Case i: direct containment — return the matched stay points.
    Case ii: reachable containment through intermediate trajectories of
    ``database`` — recurse through one witness chain.
    Case iii: no relation — empty list.
    """
    match = contains(st, pattern, eps_t_m, delta_t_s)
    if match is not None:
        return [st[i] for i in match]
    chain = _reach_chain(st, pattern, eps_t_m, delta_t_s, database)
    if chain is None:
        return []
    # Walk the chain from the pattern upward: CP(ST, CP(ST_j, ST')).
    current = pattern
    for link in reversed(chain):
        matched = contains(link, current, eps_t_m, delta_t_s)
        if matched is None:  # pragma: no cover - chain construction guarantees it
            return []
        current = SemanticTrajectory(link.traj_id, [link[i] for i in matched])
    final = contains(st, current, eps_t_m, delta_t_s)
    if final is None:  # pragma: no cover - chain ends at st
        return []
    return [st[i] for i in final]


def reachable_contains(
    st: SemanticTrajectory,
    pattern: SemanticTrajectory,
    eps_t_m: float,
    delta_t_s: float,
    database: Sequence[SemanticTrajectory],
) -> bool:
    """Definition 8 through witnesses drawn from ``database``."""
    if contains(st, pattern, eps_t_m, delta_t_s) is not None:
        return True
    return _reach_chain(st, pattern, eps_t_m, delta_t_s, database) is not None


def _reach_chain(
    st: SemanticTrajectory,
    pattern: SemanticTrajectory,
    eps_t_m: float,
    delta_t_s: float,
    database: Sequence[SemanticTrajectory],
) -> Optional[List[SemanticTrajectory]]:
    """BFS for a containment chain st ⊇ ST_1 ⊇ ... ⊇ ST_j ⊇ pattern.

    Returns the intermediate trajectories ``[ST_1, ..., ST_j]`` (possibly
    of length one) or ``None``.  Exponential in theory; intended for the
    small databases of tests and exact-metric computations.
    """
    if not database:
        return None
    # Frontier holds (trajectory, chain to reach it from st).
    frontier: List[Tuple[SemanticTrajectory, List[SemanticTrajectory]]] = []
    visited = set()
    for cand in database:
        if cand is st or id(cand) in visited:
            continue
        if contains(st, cand, eps_t_m, delta_t_s) is not None:
            frontier.append((cand, [cand]))
            visited.add(id(cand))
    while frontier:
        node, chain = frontier.pop(0)
        if contains(node, pattern, eps_t_m, delta_t_s) is not None:
            return chain
        for cand in database:
            if cand is st or id(cand) in visited:
                continue
            if contains(node, cand, eps_t_m, delta_t_s) is not None:
                visited.add(id(cand))
                frontier.append((cand, chain + [cand]))
    return None


def group_of(
    pattern: SemanticTrajectory,
    database: Sequence[SemanticTrajectory],
    eps_t_m: float,
    delta_t_s: float,
) -> List[List[StayPoint]]:
    """Groups per pattern position (Definition 10).

    ``result[k]`` collects the k-th counterpart stay point from every
    trajectory that contains or reachable-contains the pattern, plus the
    pattern's own k-th point.
    """
    groups: List[List[StayPoint]] = [[sp] for sp in pattern.stay_points]
    for st in database:
        if st is pattern:
            continue
        cps = counterpart(st, pattern, eps_t_m, delta_t_s, database)
        if not cps:
            continue
        for k, sp in enumerate(cps):
            groups[k].append(sp)
    return groups


def support_of(
    pattern: SemanticTrajectory,
    database: Sequence[SemanticTrajectory],
    eps_t_m: float,
    delta_t_s: float,
) -> int:
    """``ST.sup(D)``: trajectories containing or reachable-containing
    the pattern (Table 2)."""
    count = 0
    for st in database:
        if st is pattern:
            continue
        if reachable_contains(st, pattern, eps_t_m, delta_t_s, database):
            count += 1
    return count
