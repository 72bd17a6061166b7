"""Cost-space embeddings.

The Relaxation baseline (Pietzuch et al., ICDE'06) operates in a
low-dimensional *cost space*: a Euclidean embedding of the network in
which distances approximate pairwise traversal costs.  The paper's
experiments configure a 3-dimensional cost space; we reproduce it with
classical multidimensional scaling (Torgerson MDS) over the all-pairs
cost matrix.  The hierarchy's k-means clustering reuses the same
embedding so that "nodes that are close in the clustering parameter"
land in the same cluster.
"""

from __future__ import annotations

import numpy as np

from repro.network.graph import Network


def classical_mds(distances: np.ndarray, dim: int = 3) -> np.ndarray:
    """Classical (Torgerson) MDS embedding of a distance matrix.

    Args:
        distances: Symmetric non-negative ``(n, n)`` matrix.
        dim: Number of output dimensions.

    Returns:
        ``(n, dim)`` coordinate array whose pairwise Euclidean distances
        approximate ``distances`` (exactly, when the matrix is Euclidean
        of rank <= dim).  Components beyond the matrix rank are zero.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got {d.shape}")
    if not np.allclose(d, d.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    n = d.shape[0]
    if dim < 1:
        raise ValueError("dim must be positive")
    sq = d**2
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * centering @ sq @ centering
    # b is symmetric; eigh returns ascending eigenvalues.
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1][:dim]
    vals = np.clip(eigvals[order], 0.0, None)
    coords = eigvecs[:, order] * np.sqrt(vals)[None, :]
    if coords.shape[1] < dim:  # pragma: no cover - defensive
        coords = np.pad(coords, ((0, 0), (0, dim - coords.shape[1])))
    return coords


def embed_network(network: Network, dim: int = 3) -> np.ndarray:
    """Embed a network's nodes into a ``dim``-dimensional cost space.

    Args:
        network: Network to embed (its traversal-cost matrix).
        dim: Embedding dimensionality (the paper's Relaxation setup
            uses 3).

    Returns:
        ``(num_nodes, dim)`` coordinates indexed by node id.
    """
    return classical_mds(network.cost_matrix(), dim=dim)
