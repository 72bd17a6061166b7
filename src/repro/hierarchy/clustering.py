"""Clustering of network nodes by traversal cost.

The paper clusters "based on our optimization criteria ... using the
K-Means algorithm" with a hard cap of ``max_cs`` nodes per cluster.  We
implement k-means ourselves (Lloyd's algorithm with k-means++ seeding)
on a classical-MDS embedding of the traversal-cost matrix, plus a
k-medoids variant that works on the raw cost matrix, plus a random
clustering used as an ablation baseline.  :func:`capped_clusters`
wraps any of them and enforces the ``max_cs`` cap by recursively
splitting oversized clusters.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils import SeedLike, as_generator

#: Iteration cap of :func:`kmeans` and :func:`kmedoids`.
MAX_ITERS = 100


def kmeans(
    coords: np.ndarray,
    k: int,
    seed: SeedLike = None,
) -> list[list[int]]:
    """Lloyd's k-means over point coordinates.

    Args:
        coords: ``(n, d)`` points.
        k: Number of clusters (1 <= k <= n).
        seed: RNG seed/generator (k-means++ seeding).

    Returns:
        A list of ``k`` non-empty clusters, each a sorted list of point
        indices, together covering ``0..n-1``.
    """
    pts = np.asarray(coords, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = as_generator(seed)

    centers = _kmeanspp_init(pts, k, rng)
    assignment = np.zeros(n, dtype=np.intp)
    for _ in range(MAX_ITERS):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assignment = dists.argmin(axis=1)
        # Re-seed any emptied cluster with the point farthest from its
        # center (marking stolen points so two empty clusters never
        # grab the same one).
        for c in range(k):
            if not (new_assignment == c).any():
                worst = int(dists[np.arange(n), new_assignment].argmax())
                new_assignment[worst] = c
                dists[worst, :] = -1.0
        if (new_assignment == assignment).all() and _ > 0:
            break
        assignment = new_assignment
        for c in range(k):
            centers[c] = pts[assignment == c].mean(axis=0)
    return _groups(assignment, k)


def _kmeanspp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = [pts[int(rng.integers(0, n))]]
    for _ in range(1, k):
        d2 = np.min(
            ((pts[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        total = d2.sum()
        if total <= 0:
            centers.append(pts[int(rng.integers(0, n))])
            continue
        probs = d2 / total
        centers.append(pts[int(rng.choice(n, p=probs))])
    return np.asarray(centers, dtype=np.float64)


def kmedoids(
    distances: np.ndarray,
    k: int,
    seed: SeedLike = None,
) -> list[list[int]]:
    """k-medoids (PAM-style alternating) directly on a distance matrix.

    Useful when no faithful Euclidean embedding exists; same return
    convention as :func:`kmeans`.
    """
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    if d.ndim != 2 or d.shape[1] != n:
        raise ValueError("distances must be a square matrix")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = as_generator(seed)
    medoids = list(rng.choice(n, size=k, replace=False))
    assignment = d[:, medoids].argmin(axis=1)
    for _ in range(MAX_ITERS):
        changed = False
        for c in range(k):
            members = np.flatnonzero(assignment == c)
            if members.size == 0:
                far = int(d[np.arange(n), [medoids[a] for a in assignment]].argmax())
                medoids[c] = far
                changed = True
                continue
            within = d[np.ix_(members, members)].sum(axis=1)
            best = int(members[within.argmin()])
            if best != medoids[c]:
                medoids[c] = best
                changed = True
        new_assignment = d[:, medoids].argmin(axis=1)
        if not changed and (new_assignment == assignment).all():
            break
        assignment = new_assignment
    return _groups(np.asarray(assignment), k)


def random_clustering(
    n: int,
    k: int,
    seed: SeedLike = None,
) -> list[list[int]]:
    """Uniformly random balanced clustering (ablation baseline)."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = as_generator(seed)
    perm = rng.permutation(n)
    return [sorted(int(i) for i in perm[c::k]) for c in range(k)]


def _groups(assignment: np.ndarray, k: int) -> list[list[int]]:
    return [sorted(int(i) for i in np.flatnonzero(assignment == c)) for c in range(k)]


def choose_medoid(members: Sequence[int], distances: np.ndarray) -> int:
    """The member minimizing total distance to the other members.

    This is how cluster *coordinators* are elected: the most central
    member represents the cluster at the next level up.
    """
    if not members:
        raise ValueError("empty member list")
    idx = np.asarray(list(members), dtype=np.intp)
    sub = distances[np.ix_(idx, idx)]
    return int(idx[sub.sum(axis=1).argmin()])


def capped_clusters(
    items: Sequence[int],
    distances: np.ndarray,
    max_cs: int,
    seed: SeedLike = None,
    method: str = "kmeans",
    embed_dim: int = 3,
) -> list[list[int]]:
    """Cluster ``items`` with at most ``max_cs`` per cluster.

    Args:
        items: Node ids to cluster (indices into ``distances``).
        distances: Full pairwise traversal-cost matrix (node-id indexed).
        max_cs: The paper's cluster-size cap.
        seed: RNG seed/generator.
        method: ``"kmeans"`` (MDS embedding + Lloyd), ``"kmedoids"`` or
            ``"random"``.
        embed_dim: Embedding dimensionality for the k-means method.

    Returns:
        Clusters as sorted lists of node ids; every cluster has between
        1 and ``max_cs`` members and the clusters partition ``items``.
    """
    if max_cs < 1:
        raise ValueError("max_cs must be positive")
    items = [int(i) for i in items]
    if not items:
        raise ValueError("nothing to cluster")
    rng = as_generator(seed)
    if len(items) <= max_cs:
        return [sorted(items)]
    k = -(-len(items) // max_cs)  # ceil division

    idx = np.asarray(items, dtype=np.intp)
    sub = distances[np.ix_(idx, idx)]

    if method == "kmeans":
        from repro.network.embedding import classical_mds

        coords = classical_mds(sub, dim=min(embed_dim, len(items) - 1) or 1)
        local = kmeans(coords, k, seed=rng)
    elif method == "kmedoids":
        local = kmedoids(sub, k, seed=rng)
    elif method == "random":
        local = random_clustering(len(items), k, seed=rng)
    else:
        raise ValueError(f"unknown clustering method {method!r}")

    out: list[list[int]] = []
    for group in local:
        mapped = [items[g] for g in group]
        if len(mapped) <= max_cs:
            out.append(sorted(mapped))
        else:
            # Recurse on oversized clusters until the cap holds.
            out.extend(
                capped_clusters(mapped, distances, max_cs, seed=rng, method=method, embed_dim=embed_dim)
            )
    return out
