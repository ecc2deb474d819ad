"""Spectral toolbox: Laplacians, Fiedler vectors, sweep cuts.

The spectral recursive-bisection decomposition builder
(:mod:`repro.decomposition.spectral`) and the multilevel baseline's
initial-partition stage both need a cheap, dependable way to find
low-conductance cuts.  We implement:

* graph Laplacian / normalized Laplacian assembly (sparse),
* a Fiedler-vector solver — a power iteration on ``cI − L`` (``c`` an
  upper bound on the spectrum, so the smallest eigenvalues of ``L``
  become the largest), deflated against the known kernel direction each
  step, falling back to :func:`scipy.sparse.linalg.eigsh` when the
  iteration budget runs out, and
* the classic *sweep cut* rounding that scans the sorted Fiedler
  embedding and takes the best conductance (or best balanced-cut)
  threshold, which carries Cheeger-style guarantees.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

import repro.kernels as kernels
from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "laplacian",
    "normalized_laplacian",
    "fiedler_vector",
    "sweep_cut",
    "spectral_bisection",
]


def laplacian(g: Graph) -> sp.csr_matrix:
    """Combinatorial Laplacian ``L = D − A`` as sparse CSR."""
    a = g.to_scipy_sparse()
    deg = np.asarray(a.sum(axis=1)).ravel()
    return sp.diags(deg).tocsr() - a


def normalized_laplacian(g: Graph) -> sp.csr_matrix:
    """Symmetric normalized Laplacian ``I − D^{-1/2} A D^{-1/2}``.

    Isolated vertices get a zero row/column (their "eigenvalue" is 0,
    which is correct: they are free to go anywhere).
    """
    a = g.to_scipy_sparse()
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    d_half = sp.diags(inv_sqrt)
    eye = sp.diags(nz.astype(np.float64))
    return (eye - d_half @ a @ d_half).tocsr()


def fiedler_vector(
    g: Graph,
    normalized: bool = True,
    tol: float = 1e-8,
    max_iter: int = 2000,
    seed: SeedLike = None,
    use_cache: bool = True,
) -> np.ndarray:
    """Eigenvector of the second-smallest Laplacian eigenvalue.

    Strategy: deflated power iteration on ``cI − L`` (which maps the
    smallest eigenvalues of ``L`` to the largest of the iteration matrix),
    orthogonalised against the known kernel direction each step.  If it
    has not converged within ``max_iter`` steps (tiny spectral gap) we
    fall back to scipy's :func:`~scipy.sparse.linalg.eigsh`.

    Caching: the eigensolve is deterministic given the graph and the
    random start vector, so results are memoised in :mod:`repro.cache`
    (kind ``"fiedler"``) keyed by the graph digest, solver params, and a
    hash of the drawn start vector.  The start vector is drawn from the
    rng *before* the lookup, so a generator passed as ``seed`` consumes
    exactly the same entropy on a hit as on a miss — callers sharing an
    rng stream stay bit-for-bit deterministic either way.

    Parameters
    ----------
    g: connected graph with ``n >= 2``.
    normalized: use the normalized Laplacian (kernel ``D^{1/2} 1``).
    tol: convergence threshold on successive-iterate distance.
    max_iter: power-iteration budget before falling back to scipy.
    seed: seed for the random start vector.
    use_cache: consult the process cache before solving.
    """
    if g.n < 2:
        raise InvalidInputError("fiedler_vector needs n >= 2")
    rng = ensure_rng(seed)
    start = rng.standard_normal(g.n)
    if use_cache:
        from repro.cache import get_cache

        cache = get_cache()
        h = hashlib.blake2b(start.tobytes(), digest_size=16).hexdigest()
        parts = (g.digest(), bool(normalized), float(tol), int(max_iter), h)
        hit, value = cache.lookup("fiedler", parts)
        if hit:
            return value.copy()
        result = _solve_fiedler(g, normalized, tol, max_iter, start)
        cache.store("fiedler", parts, result)
        return result.copy()
    return _solve_fiedler(g, normalized, tol, max_iter, start)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float64 vector, bit for bit (it computes
    ``sqrt(v.dot(v))`` too), without its per-call dispatch."""
    return math.sqrt(v.dot(v))


def _solve_fiedler(
    g: Graph, normalized: bool, tol: float, max_iter: int, start: np.ndarray
) -> np.ndarray:
    """The actual eigensolve, from a caller-supplied start vector."""
    lap = normalized_laplacian(g) if normalized else laplacian(g)
    n = g.n
    if normalized:
        deg = g.weighted_degrees.copy()
        deg[deg <= 0] = 1.0
        kernel = np.sqrt(deg)
    else:
        kernel = np.ones(n)
    kernel /= np.linalg.norm(kernel)

    # Upper bound on eigenvalues: 2 for normalized, 2*max degree otherwise.
    shift = 2.0 if normalized else 2.0 * float(g.weighted_degrees.max() or 1.0)
    x = start.copy()
    x -= kernel * (kernel @ x)
    nrm = np.linalg.norm(x)
    if nrm == 0:  # pragma: no cover - probability zero
        x = np.ones(n)
        x[0] = -1.0
        nrm = np.linalg.norm(x)
    x /= nrm
    # The matvec dominates the iteration; dispatch it through the kernel
    # seam over the raw CSR arrays (the python backend reproduces
    # ``lap @ x`` exactly, so cached Fiedler digests are unaffected).
    lap_indptr, lap_indices, lap_data = lap.indptr, lap.indices, lap.data
    backend = kernels.get_backend()
    for _ in range(max_iter):
        y = shift * x - kernels.csr_matvec(
            lap_indptr, lap_indices, lap_data, x, backend=backend
        )
        y -= kernel * kernel.dot(y)
        nrm = _norm(y)
        if nrm < 1e-14:
            break
        y /= nrm
        if _norm(y - x) < tol or _norm(y + x) < tol:
            return y
        x = y
    # Fallback: scipy Lanczos on the two smallest eigenpairs.  The start
    # vector is the last power iterate so the result stays deterministic
    # for a given seed.
    try:
        from scipy.sparse.linalg import eigsh

        k = min(2, n - 1)
        _, vecs = eigsh(lap, k=k, sigma=-1e-3, which="LM", v0=x)
        return vecs[:, -1]
    except Exception:  # pragma: no cover - last resort, dense solve
        _, vecs = np.linalg.eigh(lap.toarray())
        return vecs[:, 1]


def sweep_cut(
    g: Graph,
    embedding: np.ndarray,
    balance_fraction: float = 0.0,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Best threshold cut along a 1-D embedding.

    Sorts vertices by ``embedding`` and evaluates every prefix as one cut
    side, returning the boolean mask of the best side and its score
    (conductance).  With ``balance_fraction = f > 0`` only prefixes whose
    ``weights``-mass lies within ``[f, 1 − f]`` of the total are eligible —
    this is how the bisection callers enforce balance.

    Runs in one vectorised pass: prefix cut weights are maintained by the
    identity ``cut(prefix + v) = cut(prefix) + deg_w(v) − 2·w(v, prefix)``
    accumulated over sorted adjacency, giving O(m + n log n) total.
    """
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.shape != (g.n,):
        raise InvalidInputError(f"embedding must have shape ({g.n},)")
    if g.n < 2:
        raise InvalidInputError("sweep_cut needs n >= 2")
    w_node = np.ones(g.n) if weights is None else np.asarray(weights, dtype=np.float64)
    if w_node.shape != (g.n,):
        raise InvalidInputError(f"weights must have shape ({g.n},)")

    order = np.argsort(emb, kind="stable")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)

    # cut(prefix_t) for t = 1..n-1 via the streaming identity above.
    wdeg = g.weighted_degrees
    cut = np.zeros(g.n - 1)
    running = 0.0
    # For each vertex in order, subtract twice the weight to already-placed
    # neighbours. This is the only per-edge Python-level loop; it touches
    # each CSR entry once.
    indptr, indices, aw = g.indptr, g.indices, g.adj_weights
    for t, v in enumerate(order[:-1]):
        rv = rank[indices[indptr[v] : indptr[v + 1]]]
        ws = aw[indptr[v] : indptr[v + 1]]
        w_back = float(ws[rv < t].sum())
        running += float(wdeg[v]) - 2.0 * w_back
        cut[t] = running

    vol = np.cumsum(wdeg[order])[:-1]
    total_vol = float(wdeg.sum())
    mass = np.cumsum(w_node[order])[:-1]
    total_mass = float(w_node.sum())

    denom = np.minimum(vol, total_vol - vol)
    denom[denom <= 0] = np.inf
    score = cut / denom

    if balance_fraction > 0:
        lo = balance_fraction * total_mass
        hi = (1.0 - balance_fraction) * total_mass
        eligible = (mass >= lo - 1e-12) & (mass <= hi + 1e-12)
        if not eligible.any():
            # Fall back to the most balanced available split.
            eligible = np.zeros_like(score, dtype=bool)
            eligible[int(np.argmin(np.abs(mass - total_mass / 2)))] = True
        score = np.where(eligible, score, np.inf)

    best = int(np.argmin(score))
    mask = np.zeros(g.n, dtype=bool)
    mask[order[: best + 1]] = True
    return mask, float(score[best])


def spectral_bisection(
    g: Graph,
    balance_fraction: float = 0.25,
    weights: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Fiedler vector + balanced sweep cut; returns a boolean side mask.

    ``balance_fraction = 0.25`` keeps each side between 25% and 75% of the
    vertex mass — loose enough to find good cuts, tight enough that the
    recursion in the decomposition builders terminates in O(log n) depth.
    """
    if g.n < 2:
        raise InvalidInputError("spectral_bisection needs n >= 2")
    if g.m == 0:
        mask = np.zeros(g.n, dtype=bool)
        mask[: g.n // 2] = True
        return mask
    fv = fiedler_vector(g, seed=seed)
    mask, _ = sweep_cut(g, fv, balance_fraction=balance_fraction, weights=weights)
    return mask
