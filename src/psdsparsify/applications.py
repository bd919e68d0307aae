"""Applications of the sparsifier: graphs, hypergraphs, and thinned SDPs.

Every construction here reduces to one call of ``sparsify_sum`` on a
purpose-built PSD collection: per-edge Laplacians for graphs, clique
Laplacians for hyperedges, and block-diagonal liftings that append scalar
slots carrying costs, SDP objective terms, simplex weights, or restricted
Laplacians for a subgraph family.  Because every lifted matrix is block
diagonal, the single sandwich certificate splits into one certificate per
block.

Graph, hypergraph, cost and family collections are built as factor rows
(``PsdCollection.from_rows``), with B summed in closed form by
``laplacian``-style running sums, so they take O(K n) memory for K rows:
an edge is sqrt(w) (e_u - e_v), a hyperedge k - 1 scaled Helmert rows, a
cost slot sqrt(w c_i) e_{n+i} and a family section the edge row inside
the section.  The SDP and simplex lifts stay dense (m, n, n) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleInput,
    InvalidColoring,
    InvalidCost,
    InvalidFamily,
    InvalidMatrix,
    InvalidSimplexPoint,
)
from .linalg import (
    CHECK_TOL,
    DEFAULT_PSD_TOL,
    PsdCollection,
    SandwichCertificate,
    certificate_for,
    is_psd,
    member_sum,
    reduce_to_identity,
    symmetrize,
    verify_sandwich,
)
from .solve import sparsify_sum

CUT_ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class WeightedGraph:
    """Vertices 1..n and weighted edges (u, v, w) with u < v, w > 0."""

    n: int
    edges: list

    def __post_init__(self):
        seen = set()
        for u, v, w in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n = {self.n}")
            if w <= 0:
                raise ValueError(f"edge ({u}, {v}) has nonpositive weight {w}")
            if not np.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class WeightedHypergraph:
    """Vertices 1..n and weighted hyperedges (vertex tuple, w) with w > 0."""

    n: int
    hyperedges: list

    def __post_init__(self):
        for verts, w in self.hyperedges:
            if len(verts) < 2:
                raise ValueError(f"hyperedge {verts} has fewer than two vertices")
            if len(set(verts)) != len(verts):
                raise ValueError(f"hyperedge {verts} repeats a vertex")
            if any(not 1 <= v <= self.n for v in verts):
                raise ValueError(f"hyperedge {verts} out of range for n = {self.n}")
            if w <= 0:
                raise ValueError(f"hyperedge {verts} has nonpositive weight {w}")
            if not np.isfinite(w):
                raise ValueError(f"hyperedge {verts} has non-finite weight {w}")

    @property
    def m(self) -> int:
        return len(self.hyperedges)


@dataclass(frozen=True)
class SdpInstance:
    """min c^T z s.t. sum(z_i A_i) >= B, z >= 0, with a feasible z_star.

    ``matrices`` holds A_1..A_m, as one (m, n, n) stack when parsed.
    """

    matrices: np.ndarray
    target: np.ndarray
    cost: np.ndarray
    z_star: np.ndarray


def _edge_weights(g: WeightedGraph) -> np.ndarray:
    return np.array([w for _, _, w in g.edges], dtype=float)


def _edge_pairs(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """0-based endpoints u < v of every edge, in edge order."""
    return np.array([(u - 1, v - 1) for u, v, _ in g.edges], dtype=int).reshape(-1, 2).T


def _pair_laplacian(dim: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum over pairs of w (e_u - e_v)(e_u - e_v)^T, added pair by pair as a
    running sum would add it, so it is exactly symmetric."""
    out = np.zeros((dim, dim))
    rows, cols = np.stack([u, v, u, v], axis=1), np.stack([u, v, v, u], axis=1)
    np.add.at(out, (rows, cols), np.stack([w, w, -w, -w], axis=1))
    return out


def _pair_rows(dim: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The row sqrt(w) (e_u - e_v) of every pair, as one (len(w), dim) stack."""
    rows = np.zeros((len(w), dim))
    at, root = np.arange(len(w)), np.sqrt(w)
    rows[at, u] = root
    rows[at, v] = -root
    return rows


def laplacian(g: WeightedGraph) -> np.ndarray:
    """sum over edges of w * (e_u - e_v)(e_u - e_v)^T, added edge by edge
    as a running sum would add it, so it is exactly symmetric."""
    return _pair_laplacian(g.n, *_edge_pairs(g), _edge_weights(g))


def _with_slots(blocks: np.ndarray, slots: np.ndarray) -> PsdCollection:
    """diag(block_i, diag(slots_i)) for every member i of the (m, n, n)
    ``blocks`` and the (m, k) ``slots``."""
    m, n, _ = blocks.shape
    out = np.zeros((m, n + slots.shape[1], n + slots.shape[1]))
    out[:, :n, :n] = blocks
    diagonal = np.arange(n, n + slots.shape[1])
    out[:, diagonal, diagonal] = slots
    return PsdCollection.from_matrices(out, validate=False)


def _pair_collection(dim: int, u, v, w, bounds=None) -> PsdCollection:
    """The rows sqrt(w) (e_u - e_v) of the pairs, member j owning the pairs
    ``bounds[j]:bounds[j + 1]`` (one pair each when ``bounds`` is None), and
    their Laplacian as B."""
    bounds = np.arange(len(w) + 1) if bounds is None else bounds
    return PsdCollection.from_rows(
        dim, _pair_rows(dim, u, v, w), bounds, _pair_laplacian(dim, u, v, w)
    )


def edge_collection(g: WeightedGraph) -> PsdCollection:
    """One rank-one Laplacian per edge, in edge order, as its row sqrt(w) (e_u - e_v)."""
    return _pair_collection(g.n, *_edge_pairs(g), _edge_weights(g))


def graph_cut_weight(g: WeightedGraph, s) -> float:
    """Total weight of edges with exactly one endpoint in s."""
    s = set(s)
    return float(sum(w for u, v, w in g.edges if (u in s) != (v in s)))


def _reweighted_graph(g: WeightedGraph, y: np.ndarray) -> WeightedGraph:
    edges = [
        (u, v, yi * w) for (u, v, w), yi in zip(g.edges, y) if yi > 0.0
    ]
    return WeightedGraph(n=g.n, edges=edges)


@dataclass(frozen=True)
class CostWindow:
    """One linear functional before and after reweighting."""

    original: float
    sparsified: float

    def within(self, eps: float) -> bool:
        lo = self.original * (1.0 - CHECK_TOL)
        hi = (1.0 + eps) * self.original * (1.0 + CHECK_TOL) + CHECK_TOL
        return lo <= self.sparsified <= hi


@dataclass(frozen=True)
class Sparsification:
    """Weights from one application run and the checks that judge them.

    ``weights`` is the per-member output vector, ``certificate`` the
    sandwich certificate of the application's own matrix, and
    ``lifted_rank`` the whitened dimension the solver worked in.
    ``checks`` holds ordered (report line, ok) pairs for every condition
    the application adds to the certificate (cost windows, member
    certificates, SDP objective and feasibility, simplex sum); ``passed``
    is true when the certificate meets its window and every check is ok.
    """

    weights: np.ndarray
    certificate: SandwichCertificate
    lifted_rank: int
    passed: bool
    checks: tuple


@dataclass(frozen=True)
class GraphSparsification(Sparsification):
    """Reweighted subgraph plus the certificates backing it.

    ``weights`` is the per-edge multiplier vector y (edge order of the
    input graph); ``cost_windows`` and ``member_certificates`` are filled
    by the cost/rainbow and subgraph-family variants respectively.
    """

    subgraph: WeightedGraph
    cost_windows: list | None = None
    member_certificates: list | None = None


@dataclass(frozen=True)
class HypergraphSparsification(Sparsification):
    subhypergraph: WeightedHypergraph


def _verdict(certificate_ok: bool, checks) -> bool:
    return certificate_ok and all(ok for _, ok in checks)


def sparsify_graph(
    g: WeightedGraph,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> GraphSparsification:
    """Spectral sparsifier: L_G(w) <= L_H(w_H) <= (1+eps) L_G(w)."""
    result = sparsify_sum(edge_collection(g), eps, algo=algo, seed=seed, max_seconds=max_seconds)
    return GraphSparsification(
        weights=result.weights,
        certificate=result.certificate,
        lifted_rank=result.reduced_rank,
        passed=result.certificate.passes(eps),
        checks=(),
        subgraph=_reweighted_graph(g, result.weights),
    )


def cost_lifted_collection(g: WeightedGraph, costs) -> PsdCollection:
    """Edge Laplacians extended with one diagonal slot per cost function.

    Edge e is the row sqrt(w) (e_u - e_v) followed by one row
    sqrt(w c_i) e_{n+i} for every cost i with w c_i > 0.
    """
    costs = [np.asarray(c, dtype=float) for c in costs]
    for i, c in enumerate(costs):
        if c.shape != (g.m,):
            raise InvalidCost(f"cost {i} has shape {c.shape}, expected ({g.m},)")
        if np.any(c < 0.0):
            raise InvalidCost(f"cost {i} has a negative entry")
        if not np.isfinite(c).all():
            raise InvalidCost(f"cost {i} has a non-finite entry")
    n, w = g.n, _edge_weights(g)
    slots = np.reshape(costs, (len(costs), g.m)).T * w[:, None]
    dim = n + slots.shape[1]
    filled = slots > 0.0
    bounds = np.concatenate(([0], np.cumsum(1 + filled.sum(axis=1))))
    u, v = _edge_pairs(g)
    rows = np.zeros((bounds[-1], dim))
    rows[bounds[:-1], :n] = _pair_rows(n, u, v, w)
    edge, slot = np.nonzero(filled)
    rows[bounds[edge] + np.cumsum(filled, axis=1)[edge, slot], n + slot] = np.sqrt(slots[filled])
    total = np.zeros((dim, dim))
    total[:n, :n] = _pair_laplacian(n, u, v, w)
    if g.m:
        # each slot's sum runs over the edges in order, as a running sum would
        total[np.arange(n, dim), np.arange(n, dim)] = np.add.accumulate(slots)[-1]
    return PsdCollection.from_rows(dim, rows, bounds, total)


def sparsify_with_costs(
    g: WeightedGraph,
    costs,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> GraphSparsification:
    """Sparsify while preserving each cost total within [1, 1+eps].

    Each edge matrix gains one diagonal slot per cost function holding
    w_e * c_{i,e}; the block-diagonal sandwich then bounds every cost sum
    alongside the Laplacian.
    """
    costs = [np.asarray(c, dtype=float) for c in costs]
    coll = cost_lifted_collection(g, costs)
    result = sparsify_sum(coll, eps, algo=algo, seed=seed, max_seconds=max_seconds)
    y = result.weights

    lap_cert = certificate_for(reduce_to_identity(edge_collection(g)), y)
    base = _edge_weights(g)
    windows = [
        CostWindow(
            original=float(np.sum(base * c)),
            sparsified=float(np.sum(y * base * c)),
        )
        for c in costs
    ]
    checks = tuple(
        (
            f"cost {i} original {win.original:.16e} sparsified {win.sparsified:.16e}",
            win.within(eps),
        )
        for i, win in enumerate(windows)
    )
    return GraphSparsification(
        weights=y,
        certificate=lap_cert,
        lifted_rank=result.reduced_rank,
        passed=_verdict(lap_cert.passes(eps), checks),
        checks=checks,
        subgraph=_reweighted_graph(g, y),
        cost_windows=windows,
    )


def rainbow_sparsify(
    g: WeightedGraph,
    coloring,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> GraphSparsification:
    """Sparsify while preserving each color class weight within [1-eps, 1+eps].

    ``coloring`` lists, per class, the edge indices it contains; classes
    must partition the edge set.  Implemented as costs with indicator
    vectors, whose [1, 1+eps] windows imply the stated two-sided ones.
    """
    covered = [0] * g.m
    indicators = []
    for cls in coloring:
        c = np.zeros(g.m)
        for idx in cls:
            if not 0 <= idx < g.m:
                raise InvalidColoring(f"edge index {idx} out of range")
            covered[idx] += 1
            c[idx] = 1.0
        indicators.append(c)
    if any(count != 1 for count in covered):
        bad = [i for i, count in enumerate(covered) if count != 1]
        raise InvalidColoring(f"edges {bad} are not covered exactly once")
    return sparsify_with_costs(g, indicators, eps, algo=algo, seed=seed, max_seconds=max_seconds)


def clique_laplacian(vertices, n: int) -> np.ndarray:
    """Laplacian of the complete graph on the given distinct vertices
    inside [1..n]: k I - J on their rows and columns, for k vertices."""
    at = np.asarray(sorted(vertices), dtype=int) - 1
    out = np.zeros((n, n))
    out[np.ix_(at, at)] = len(at) * np.eye(len(at)) - 1.0
    return out


def hypergraph_laplacian(h: WeightedHypergraph) -> np.ndarray:
    """sum over hyperedges of w_E times the clique Laplacian on E."""
    out = np.zeros((h.n, h.n))
    for verts, w in h.hyperedges:
        out += w * clique_laplacian(verts, h.n)
    return symmetrize(out)


def hyperedge_collection(h: WeightedHypergraph) -> PsdCollection:
    """One clique Laplacian w (k I - J) per hyperedge on k vertices, as k - 1 rows.

    Row i of the hyperedge on the sorted vertices v_1 < ... < v_k is
    sqrt(w k / (i (i + 1))) (e_{v_1} + ... + e_{v_i} - i e_{v_{i+1}}): the
    Helmert basis of the complement of the all-ones vector, scaled.  Two
    vertices give the edge row sqrt(w) (e_{v_1} - e_{v_2}) bit for bit.
    """
    bounds = np.concatenate(([0], np.cumsum([len(verts) - 1 for verts, _ in h.hyperedges])))
    rows = np.zeros((bounds[-1], h.n))
    for lo, (verts, w) in zip(bounds, h.hyperedges):
        at = np.asarray(sorted(verts), dtype=int) - 1
        k = len(at)
        i = np.arange(1, k)
        helmert = np.tri(k - 1, k)
        helmert[i - 1, i] = -i
        rows[lo : lo + k - 1, at] = np.sqrt(w * k / (i * (i + 1.0)))[:, None] * helmert
    return PsdCollection.from_rows(h.n, rows, bounds, hypergraph_laplacian(h))


def sparsify_hypergraph(
    h: WeightedHypergraph,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> HypergraphSparsification:
    """Sub-hypergraph whose clique-expansion Laplacian sandwiches the input."""
    result = sparsify_sum(
        hyperedge_collection(h), eps, algo=algo, seed=seed, max_seconds=max_seconds
    )
    kept = [
        (verts, yi * w)
        for (verts, w), yi in zip(h.hyperedges, result.weights)
        if yi > 0.0
    ]
    return HypergraphSparsification(
        weights=result.weights,
        certificate=result.certificate,
        lifted_rank=result.reduced_rank,
        passed=result.certificate.passes(eps),
        checks=(),
        subhypergraph=WeightedHypergraph(n=h.n, hyperedges=kept),
    )


def cut_weight(h: WeightedHypergraph, s) -> float:
    """Total weight of hyperedges crossing the cut (at least one vertex on
    each side)."""
    s = set(s)
    total = 0.0
    for verts, w in h.hyperedges:
        inside = sum(1 for v in verts if v in s)
        if 0 < inside < len(verts):
            total += w
    return float(total)


def cut_weight_star(h: WeightedHypergraph, s) -> float:
    """sum over hyperedges of w_E * |S cap E| * |E \\ S|; equals the
    Laplacian quadratic form at the indicator of S."""
    s = set(s)
    total = 0.0
    for verts, w in h.hyperedges:
        inside = sum(1 for v in verts if v in s)
        total += w * inside * (len(verts) - inside)
    return float(total)


@dataclass(frozen=True)
class CutReport:
    """Outcome of exhaustive cut checking; empty violations means pass."""

    cuts_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _all_nontrivial_subsets(n: int):
    for mask in range(1, 2**n - 1):
        yield tuple(v + 1 for v in range(n) if mask >> v & 1)


def cut_sparsifier_report(
    h: WeightedHypergraph,
    sub: WeightedHypergraph,
    eps: float,
    r: int | None = None,
) -> CutReport:
    """Enumerate every nontrivial cut and check the preservation windows.

    Always checks the crossing-pair value w* within ratio [1, 1+eps].  For
    an r-uniform input also checks the hyperedge-count value w within
    [(r-1)/(r^2/4), (1+eps) r^2/(4(r-1))] and the definitional window
    (r-1) w <= w* <= floor(r/2) ceil(r/2) w on both hypergraphs; for r = 3
    additionally requires w* = 2w exactly and w within [1, 1+eps].
    """
    if h.n > CUT_ENUMERATION_LIMIT:
        raise ValueError(
            f"refusing to enumerate 2^{h.n} cuts; limit is n <= {CUT_ENUMERATION_LIMIT}"
        )
    tol = CHECK_TOL
    violations = []
    count = 0
    for s in _all_nontrivial_subsets(h.n):
        count += 1
        ws_orig = cut_weight_star(h, s)
        ws_sub = cut_weight_star(sub, s)
        if ws_orig == 0.0:
            if abs(ws_sub) > tol:
                violations.append((s, "star-zero", ws_sub))
        elif not ws_orig * (1.0 - tol) <= ws_sub <= (1.0 + eps) * ws_orig * (1.0 + tol):
            violations.append((s, "star-window", ws_sub / ws_orig))
        if r is None:
            continue
        w_orig = cut_weight(h, s)
        w_sub = cut_weight(sub, s)
        lo = (r - 1.0) / (r**2 / 4.0)
        hi = (1.0 + eps) * r**2 / (4.0 * (r - 1.0))
        if w_orig == 0.0:
            if abs(w_sub) > tol:
                violations.append((s, "count-zero", w_sub))
        elif not lo * (1.0 - tol) <= w_sub / w_orig <= hi * (1.0 + tol):
            violations.append((s, "count-window", w_sub / w_orig))
        pairs = float((r // 2) * (r - r // 2))
        for label, wv, wsv in (("input", w_orig, ws_orig), ("output", w_sub, ws_sub)):
            if not (r - 1.0) * wv - tol <= wsv <= pairs * wv + tol:
                violations.append((s, f"definitional-{label}", (wv, wsv)))
        if r == 3:
            if abs(ws_orig - 2.0 * w_orig) > tol or abs(ws_sub - 2.0 * w_sub) > tol:
                violations.append((s, "three-uniform-identity", (w_orig, ws_orig)))
            if w_orig > 0.0 and not w_orig * (1.0 - tol) <= w_sub <= (
                1.0 + eps
            ) * w_orig * (1.0 + tol):
                violations.append((s, "three-uniform-window", w_sub / w_orig))
    return CutReport(cuts_checked=count, violations=violations)


def sdp_lifted_collection(inst: SdpInstance) -> PsdCollection:
    """Blocks diag(z*_i A_i, c_i z*_i) after validating the instance."""
    m = len(inst.matrices)
    cost = np.asarray(inst.cost, dtype=float)
    z_star = np.asarray(inst.z_star, dtype=float)
    if cost.shape != (m,) or z_star.shape != (m,):
        raise InfeasibleInput("cost and z_star must have one entry per matrix")
    if np.any(cost < 0.0) or np.any(z_star < 0.0):
        raise InfeasibleInput("cost and z_star must be nonnegative")
    if not (np.isfinite(cost).all() and np.isfinite(z_star).all()):
        raise InfeasibleInput("cost and z_star must be finite")
    scaled = z_star[:, None, None] * inst.matrices
    if not is_psd(symmetrize(member_sum(scaled) - inst.target), DEFAULT_PSD_TOL):
        raise InfeasibleInput("z_star does not dominate the target matrix")
    return _with_slots(scaled, (cost * z_star)[:, None])


def sparse_sdp(
    inst: SdpInstance,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> Sparsification:
    """Thin a feasible SDP solution to O(n/eps^2) support.

    The result's weights are z_bar with sum(z_bar_i A_i) >= B and
    c^T z_bar <= (1+eps) c^T z_star, built by sparsifying the blocks
    diag(z*_i A_i, c_i z*_i); its checks report both objectives and the
    feasibility of z_bar.
    """
    coll = sdp_lifted_collection(inst)
    result = sparsify_sum(coll, eps, algo=algo, seed=seed, max_seconds=max_seconds)
    z_star = np.asarray(inst.z_star, dtype=float)
    z_bar = result.weights * z_star
    cost = np.asarray(inst.cost, dtype=float)
    base_obj = float(cost @ z_star)
    new_obj = float(cost @ z_bar)
    slack = symmetrize(member_sum(z_bar[:, None, None] * inst.matrices) - inst.target)
    feasible = is_psd(slack, DEFAULT_PSD_TOL)
    checks = (
        (
            f"objective original {base_obj:.16e} sparsified {new_obj:.16e}",
            new_obj <= (1.0 + eps) * base_obj * (1.0 + CHECK_TOL) + CHECK_TOL,
        ),
        (f"feasible {'true' if feasible else 'false'}", feasible),
    )
    return Sparsification(
        weights=z_bar,
        certificate=result.certificate,
        lifted_rank=result.reduced_rank,
        passed=_verdict(result.certificate.passes(eps), checks),
        checks=checks,
    )


def renormalize_simplex(vec: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to sum exactly to 1.0 in float64.

    The sum's rounding error goes to the largest entry (``None``: the argmax
    at each try), or, where its spacing is too coarse, to the next largest
    nonzero entries in turn; each gets up to four tries.  Where those nudges
    only flip the float sum between the two sides of 1.0, the nonzero
    entries, largest first, step one ulp at a time toward 1.0, each until
    the sum lands, crosses 1.0 or has taken 64 steps.
    """
    out = vec / vec.sum()
    order = np.argsort(-out, kind="stable")[: np.count_nonzero(out)]
    for i in [None, *order[1:]]:
        for _ in range(4):
            delta = 1.0 - float(out.sum())
            if delta == 0.0:
                return out
            k = int(np.argmax(out)) if i is None else i
            if out[k] + delta <= 0.0:
                break
            out[k] += delta
    for k in order:
        below = float(out.sum()) < 1.0
        for _ in range(64):
            total = float(out.sum())
            if total == 1.0:
                return out
            step = np.nextafter(out[k], 2.0 if below else 0.0)
            if (total < 1.0) != below or step <= 0.0:
                break
            out[k] = step
    return out


def caratheodory_lifted(lambdas, coll: PsdCollection) -> PsdCollection:
    """Blocks diag(lambda_i B_i, lambda_i) after validating the simplex point."""
    if coll.matrices is None:
        raise InvalidMatrix("caratheodory needs a dense collection")
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (len(coll),):
        raise InvalidSimplexPoint("lambda must have one entry per matrix")
    if not np.isfinite(lam).all():
        raise InvalidSimplexPoint("lambda has a non-finite entry")
    if np.any(lam < 0.0) or abs(float(lam.sum()) - 1.0) > 1e-9:
        raise InvalidSimplexPoint("lambda must be nonnegative and sum to 1")
    return _with_slots(lam[:, None, None] * coll.matrices, lam[:, None])


def caratheodory(
    lambdas,
    coll: PsdCollection,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> Sparsification:
    """Sparse convex reweighting mu with (1-eps) B <= sum(mu_i B_i) <= (1+eps) B
    where B = sum(lambda_i B_i).

    The result's weights are mu, and its certificate is that of
    sum(mu_i B_i) whitened against B, judged on the two-sided window.
    """
    lam = np.asarray(lambdas, dtype=float)
    lifted = caratheodory_lifted(lam, coll)
    result = sparsify_sum(lifted, eps, algo=algo, seed=seed, max_seconds=max_seconds)
    mu = renormalize_simplex(result.weights * lam)
    scaled = PsdCollection.from_matrices(lam[:, None, None] * coll.matrices, validate=False)
    ratio = np.divide(mu, lam, out=np.zeros_like(mu), where=lam > 0.0)
    cert = verify_sandwich(scaled, ratio)
    in_window = (
        cert.lambda_min >= (1.0 - eps) * (1.0 - CHECK_TOL)
        and cert.lambda_max <= (1.0 + eps) * (1.0 + CHECK_TOL)
    )
    total = float(mu.sum())
    checks = ((f"simplex_sum {total!r}", abs(total - 1.0) <= CHECK_TOL),)
    return Sparsification(
        weights=mu,
        certificate=cert,
        lifted_rank=result.reduced_rank,
        passed=_verdict(in_window, checks),
        checks=checks,
    )


def _local_pairs(f_sorted) -> np.ndarray:
    """0-based positions of the endpoints of each edge among the sorted
    vertices of the edge list, as one (2, len) array."""
    order = {vtx: pos for pos, vtx in enumerate(sorted({x for e in f_sorted for x in e}))}
    return np.array([(order[u], order[v]) for u, v in f_sorted], dtype=int).reshape(-1, 2).T


def family_lifted_collection(g: WeightedGraph, family):
    """Edge Laplacians extended with one diagonal section per family member.

    Edge e is its row sqrt(w) (e_u - e_v) followed by the same row inside
    the section of every family member that holds e, in family order.
    Returns the collection plus one tuple per member: its sorted edge
    list, the indices of those edges in ``g.edges``, and the bounds lo, hi
    of its section.
    """
    edge_index = {(u, v): i for i, (u, v, _) in enumerate(g.edges)}
    members = []
    # every edge's pairs, in edge order: the Laplacian adds them as the
    # running sum over the members would
    pairs = [[(u - 1, v - 1)] for u, v, _ in g.edges]
    dim = g.n
    for fi, f_edges in enumerate(family):
        if len(f_edges) == 0:
            raise InvalidFamily(f"family member {fi} has no edges")
        normalized = set()
        for u, v in f_edges:
            u, v = (u, v) if u < v else (v, u)
            if (u, v) not in edge_index:
                raise InvalidFamily(f"family member {fi} uses non-edge ({u}, {v})")
            normalized.add((u, v))
        f_sorted = sorted(normalized)
        indices = [edge_index[e] for e in f_sorted]
        local = _local_pairs(f_sorted)
        for i, a, b in zip(indices, *local):
            pairs[i].append((dim + a, dim + b))
        hi = dim + int(local.max(initial=-1)) + 1
        members.append((f_sorted, indices, dim, hi))
        dim = hi

    counts = [len(p) for p in pairs]
    a, b = np.array([p for edge in pairs for p in edge], dtype=int).reshape(-1, 2).T
    w = np.repeat(_edge_weights(g), counts)
    return _pair_collection(dim, a, b, w, np.concatenate(([0], np.cumsum(counts)))), members


def subgraph_family_sparsify(
    g: WeightedGraph,
    family,
    eps: float,
    algo: str = "bss",
    seed: int = 0,
    max_seconds: float | None = None,
) -> GraphSparsification:
    """One reweighting that sparsifies G and every family member at once.

    Each family member is a list of (u, v) pairs that must be edges of G;
    its weights are inherited from G.  Edge blocks get one extra diagonal
    section per member holding the edge's Laplacian restricted to the
    member's vertex set.  Returns the subgraph, the certificate for G, and
    one certificate per family member.
    """
    coll, members = family_lifted_collection(g, family)
    result = sparsify_sum(coll, eps, algo=algo, seed=seed, max_seconds=max_seconds)
    y = result.weights

    cert_g = certificate_for(reduce_to_identity(edge_collection(g)), y)
    member_certs = []
    for f_sorted, indices, lo, hi in members:
        # the member's own edge Laplacians, in its sorted edge order
        w = _edge_weights(g)[indices]
        f_coll = _pair_collection(hi - lo, *_local_pairs(f_sorted), w)
        member_certs.append(certificate_for(reduce_to_identity(f_coll), y[indices]))
    checks = tuple(
        (
            f"member {i} lambda_min {cert.lambda_min:.16e} lambda_max {cert.lambda_max:.16e}",
            cert.passes(eps),
        )
        for i, cert in enumerate(member_certs)
    )
    return GraphSparsification(
        weights=y,
        certificate=cert_g,
        lifted_rank=result.reduced_rank,
        passed=_verdict(cert_g.passes(eps), checks),
        checks=checks,
        subgraph=_reweighted_graph(g, y),
        member_certificates=member_certs,
    )


def psd_counterexample(n: int) -> list:
    """{2I} plus all symmetric basis pairs E_ij = e_i e_j^T + e_j e_i^T.

    The E_ij are indefinite, the sum is I + J, and any reweighting whose
    E_ij coordinate vanishes cannot satisfy the lower sandwich bound: PSD
    inputs are necessary for the sparsification guarantee.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    mats = [2.0 * np.eye(n)]
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            e[j, i] = 1.0
            mats.append(e)
    return mats
