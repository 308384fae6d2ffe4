"""Weighted multigraph model, graph-family generators, edge-list reader, and BFS.

Vertices are dense integer ids ``0..n-1``.  Every edge carries a fixed
orientation ``(tail, head)`` assigned at construction and a positive
conductance.  Parallel edges are kept as distinct edge instances; self-loops
are rejected at input.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "build_graph",
    "laplacian_matrix",
    "parse_family_spec",
    "parallel_paths",
    "torus",
    "hypercube",
    "random_regular_expander",
    "path",
    "complete",
    "erdos_renyi",
    "read_graph",
    "is_connected",
]


class GraphFormatError(ValueError):
    """An edge-list file could not be parsed."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted multigraph with oriented edges.

    ``tails``/``heads``/``conductances`` are parallel arrays indexed by edge;
    the orientation ``tail -> head`` never changes after construction, so
    every edge-indexed vector in the library shares one consistent sign
    convention.
    """

    n_vertices: int
    tails: np.ndarray
    heads: np.ndarray
    conductances: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.tails.shape[0])

    @property
    def is_unweighted(self) -> bool:
        """True when every conductance is exactly 1."""
        return bool(np.all(self.conductances == 1.0))

    @cached_property
    def _reaches_all(self) -> bool:
        """Whether a BFS from vertex 0 reaches every vertex; the graph is
        immutable, so the BFS runs once and the answer is kept."""
        return -1 not in _hops(self, 0)

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as ``(tail, head, conductance)`` tuples, in stored order."""
        return [
            (int(t), int(h), float(c))
            for t, h, c in zip(self.tails, self.heads, self.conductances)
        ]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Values that float() reads as numbers ("3.5", b"2", True) but that are refused
# wherever a real number is taken: conductances and demand amounts.
_NOT_REAL = (str, bytes, bool, np.bool_)


def _check_index(value, name: str, bound: int | None = None):
    """The library's one id rule: ``value`` as an int, taken through
    ``operator.index`` (which refuses floats and strings, where ``int()``
    would truncate 1.7 and read "2") but never from a bool, and in
    ``range(bound)`` when a bound is given.  A numpy array of one or more
    dimensions needs an integer dtype, is range-checked in one vectorised
    step and is returned as it is.  Raises ``ValueError`` naming ``name``."""
    if isinstance(value, np.ndarray) and value.ndim:
        if value.dtype.kind not in "iu":  # a bool array is kind "b"
            raise ValueError(f"{name} must be integers, got an array of {value.dtype}")
        if bound is not None:
            bad = value[(value < 0) | (value >= bound)]
            if bad.size:
                raise ValueError(f"{name} must lie in range({bound}), got {bad[0]}")
        return value
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index(True) is 1
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if bound is not None and not 0 <= index < bound:
        raise ValueError(f"{name} must lie in range({bound}), got {index}")
    return index


def _check_ids(ids, name: str, bound: int) -> np.ndarray:
    """A set of vertex ids, sorted and distinct, through :func:`_check_index`:
    an array is checked whole, any other iterable id by id."""
    if isinstance(ids, np.ndarray):
        ids = _check_index(ids, name, bound)
    else:
        try:
            ids = list(ids)
        except TypeError:
            raise ValueError(f"{name} must be an iterable of vertex ids, got {ids!r}") from None
        ids = [_check_index(v, name, bound) for v in ids]
    return np.unique(np.asarray(ids, dtype=np.int64))


def _edge_error(t: int, h: int, c: float) -> str | None:
    """Why ``(t, h, c)`` is not a valid edge, or None when it is."""
    if t == h:
        return f"self-loop at vertex {t} is not allowed"
    if t < 0 or h < 0:
        return f"negative vertex id in ({t}, {h})"
    if t >= 2**63 or h >= 2**63:
        return f"vertex id {max(t, h)} is beyond the int64 range"
    if not math.isfinite(c) or c <= 0.0:
        return f"conductance must be a positive finite real, got {c}"
    return None


def build_graph(edges, n_vertices: int | None = None) -> Graph:
    """Build a :class:`Graph` from ``(tail, head, conductance)`` triples.

    Edge order and orientation follow the input.  Rejects non-integer ids
    (floats and bools too), conductances given as strings, bytes or bools,
    self-loops, non-positive or non-finite conductances, and out-of-range
    ids.  When ``n_vertices`` is omitted it is inferred as
    ``max id + 1``.
    """
    edges = list(edges)
    if not edges and n_vertices is None:
        raise ValueError("cannot infer vertex count from an empty edge list")
    tails = np.empty(len(edges), dtype=np.int64)
    heads = np.empty(len(edges), dtype=np.int64)
    conds = np.empty(len(edges), dtype=np.float64)
    for i, edge in enumerate(edges):
        try:
            t, h, c = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {i}: expected a (tail, head, conductance) triple, got {edge!r}")
        try:
            t, h = _check_index(t, "tail"), _check_index(h, "head")
        except ValueError:
            raise ValueError(f"edge {i}: vertex ids must be integers, got ({t!r}, {h!r})") from None
        if isinstance(c, _NOT_REAL):
            raise ValueError(f"edge {i}: conductance must be a real number, got {c!r}")
        c = float(c)
        error = _edge_error(t, h, c)
        if error:
            raise ValueError(f"edge {i}: {error}")
        tails[i], heads[i], conds[i] = t, h, c
    return _graph_from_arrays(tails, heads, conds, n_vertices)


def _graph_from_arrays(
    tails: np.ndarray, heads: np.ndarray, conds: np.ndarray, n_vertices: int | None
) -> Graph:
    """Freeze already validated edge arrays into a :class:`Graph`, inferring
    or range-checking the vertex count."""
    max_id = int(max(tails.max(), heads.max())) if tails.size else -1
    n_vertices = max_id + 1 if n_vertices is None else _check_index(n_vertices, "n_vertices")
    if n_vertices <= max_id:
        raise ValueError(f"vertex id {max_id} out of range for n_vertices={n_vertices}")
    return Graph(n_vertices, _freeze(tails), _freeze(heads), _freeze(conds))


def _weighted_degrees(graph: Graph) -> np.ndarray:
    """The Laplacian's diagonal: each vertex's conductances summed in edge
    order, over its tail ends and then its head ends.  Raises
    ``FloatingPointError`` when a weighted degree overflows double
    precision; every off-diagonal entry of the Laplacian, and of any Schur
    complement of it, is bounded by a diagonal entry, so a finite diagonal
    means finite matrices."""
    c = graph.conductances
    with np.errstate(over="ignore"):
        degrees = np.bincount(
            np.concatenate([graph.tails, graph.heads]), np.concatenate([c, c]), minlength=graph.n_vertices
        )
    if not np.all(np.isfinite(degrees)):
        raise FloatingPointError(
            "Laplacian is not finite: the weighted degrees overflow double precision"
        )
    return degrees


def laplacian_matrix(graph: Graph) -> np.ndarray:
    """Dense weighted Laplacian (conductance-weighted incidence Gram matrix).

    Exactly symmetric: each off-diagonal entry is summed once, in the upper
    triangle, and mirrored, so parallel edges in both orientations cannot
    leave ``L[t, h]`` and ``L[h, t]`` an ulp apart.  Raises
    ``FloatingPointError`` when a weighted degree overflows double
    precision.
    """
    n = graph.n_vertices
    t, h, c = graph.tails, graph.heads, graph.conductances
    lo, hi = np.minimum(t, h), np.maximum(t, h)
    L = np.zeros((n, n))
    np.fill_diagonal(L, _weighted_degrees(graph))
    np.add.at(L, (lo, hi), -c)
    L[hi, lo] = L[lo, hi]
    return L


# ---------------------------------------------------------------------------
# generators


def path(n: int) -> Graph:
    """Path on ``n`` vertices with unit conductances."""
    if n < 2:
        raise ValueError("path requires n >= 2")
    return build_graph([(i, i + 1, 1.0) for i in range(n - 1)])


def complete(n: int) -> Graph:
    """Complete graph on ``n`` vertices with unit conductances."""
    if n < 2:
        raise ValueError("complete requires n >= 2")
    return build_graph([(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def torus(side: int) -> Graph:
    """``side x side`` grid with wraparound; 2*side^2 unit edges.

    Vertex ``(r, c)`` has id ``r*side + c``; each vertex emits one edge to its
    right and one to its lower neighbour (mod ``side``), so ``side=2`` yields
    parallel edges, which are kept.
    """
    if side < 2:
        raise ValueError("torus requires side >= 2")
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            edges.append((v, r * side + (c + 1) % side, 1.0))
            edges.append((v, ((r + 1) % side) * side + c, 1.0))
    return build_graph(edges, n_vertices=side * side)


def hypercube(dim: int) -> Graph:
    """Boolean hypercube of dimension ``dim`` with unit conductances."""
    if dim < 1:
        raise ValueError("hypercube requires dim >= 1")
    edges = []
    for v in range(1 << dim):
        for b in range(dim):
            u = v ^ (1 << b)
            if v < u:
                edges.append((v, u, 1.0))
    return build_graph(edges, n_vertices=1 << dim)


def parallel_paths(k: int) -> Graph:
    """One direct edge between two hubs plus ``k`` disjoint hub-to-hub paths of length ``k``.

    Vertices: hub ``u=0``, hub ``v=1``, then ``k-1`` interior vertices per
    path, so ``n = 2 + k*(k-1)`` and ``m = k*k + 1``.  Edge 0 is the direct
    ``u-v`` edge; the edges of path ``j`` occupy indices ``1 + j*k .. k + j*k``
    in hub-to-hub order.
    """
    if k < 1:
        raise ValueError("parallel_paths requires k >= 1")
    u, v = 0, 1
    edges = [(u, v, 1.0)]
    nxt = 2
    for _ in range(k):
        prev = u
        for step in range(k - 1):
            edges.append((prev, nxt, 1.0))
            prev = nxt
            nxt += 1
        edges.append((prev, v, 1.0))
    return build_graph(edges, n_vertices=2 + k * (k - 1))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) sample with unit conductances; may be disconnected."""
    if n < 2:
        raise ValueError("erdos_renyi requires n >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("erdos_renyi requires p in (0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n - 1):  # row i draws for the pairs (i, i+1..n-1), in order
        heads = np.flatnonzero(rng.random(n - i - 1) < p) + (i + 1)
        edges.extend((i, j, 1.0) for j in heads.tolist())
    return build_graph(edges, n_vertices=n)


# Resamples per matching, and per whole construction, in random_regular_expander.
_EXPANDER_TRIES = 1000


def random_regular_expander(n: int, d: int, seed: int = 0) -> Graph:
    """Random ``d``-regular graph as a union of ``d`` perfect matchings.

    Matchings that would duplicate an existing edge are resampled, and the
    whole construction is retried until the result is connected, so output
    is simple, ``d``-regular, connected, and deterministic per seed.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("random_regular_expander requires even n >= 4")
    if d < 2:
        raise ValueError("random_regular_expander requires d >= 2")
    if d >= n:
        raise ValueError("random_regular_expander requires d < n")
    rng = np.random.default_rng(seed)
    for _ in range(_EXPANDER_TRIES):
        seen: set[int] = set()  # min * n + max of every pair taken so far
        edges: list[tuple[int, int, float]] = []
        ok = True
        for _ in range(d):
            for _ in range(_EXPANDER_TRIES):
                pairs = np.sort(rng.permutation(n).reshape(-1, 2), axis=1)
                keys = (pairs[:, 0] * n + pairs[:, 1]).tolist()
                if seen.isdisjoint(keys):
                    seen.update(keys)
                    edges.extend((a, b, 1.0) for a, b in pairs.tolist())
                    break
            else:
                ok = False
                break
        if not ok:
            continue
        g = build_graph(edges, n_vertices=n)
        if is_connected(g):
            return g
    raise ValueError(f"failed to sample a connected {d}-regular graph on {n} vertices")


# Largest vertex count, and largest number of edges or vertex pairs, that a
# family spec may build: a spec at the cap still builds in seconds and a few
# hundred MB, far past what the dense analyses can use.
_FAMILY_SIZE_CAP = 10**6

# name: (builder, usage, (vertices, edges or vertex pairs) from the
# parameters); the hypercube's 2**d is never formed for an absurd d
_FAMILIES = {
    "parallel_paths": (parallel_paths, "k", lambda k: (2 + k * (k - 1), k * k + 1)),
    "torus": (torus, "n", lambda n: (n * n, 2 * n * n)),
    "hypercube": (hypercube, "d", lambda d: (2**d, d * 2**d // 2) if d < 1024 else (math.inf, math.inf)),
    "expander": (random_regular_expander, "n d [seed]", lambda n, d, seed=0: (n, n * d // 2)),
    "path": (path, "n", lambda n: (n, n - 1)),
    "complete": (complete, "n", lambda n: (n, n * (n - 1) // 2)),
    "erdos_renyi": (erdos_renyi, "n p [seed]", lambda n, p, seed=0: (n, n * (n - 1) // 2)),
    "triangle": (lambda: complete(3), "", lambda: (3, 3)),
}


def _magnitude(count) -> str:
    """``count`` exactly below 1e15, else to three digits."""
    if count < 10**15:
        return str(count)
    return f"{count:.3g}" if count < 1e300 else "over 1e300"


def parse_family_spec(spec: str) -> Graph:
    """Parse a colon-separated family spec such as ``torus:8`` or ``expander:64:4:7``.

    An optional ``family:`` prefix is accepted.  The second argument of
    ``erdos_renyi`` parses as a float, everything else as integers.  The
    vertex count and the number of edges or vertex pairs the build loops
    over come from the parameters first, and a spec with either above
    ``_FAMILY_SIZE_CAP`` raises ``ValueError`` before any edge exists.
    """
    body = spec.removeprefix("family:")
    parts = body.split(":")
    name, raw_args = parts[0], parts[1:]
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown graph family {name!r} in spec {spec!r} (known: {known})")
    args: list = []
    for pos, token in enumerate(raw_args):
        try:
            if name == "erdos_renyi" and pos == 1:
                args.append(float(token))
            else:
                args.append(int(token))
        except ValueError:
            raise ValueError(f"bad parameter {token!r} in family spec {spec!r}")
    builder, usage, size = _FAMILIES[name]
    try:
        n, steps = size(*(max(a, 0) for a in args))  # a negative size is the builder's error
    except TypeError:
        raise ValueError(f"family {name!r} expects parameters: {usage or '(none)'}") from None
    if max(n, steps) > _FAMILY_SIZE_CAP:
        raise ValueError(
            f"family spec {spec!r} would build {_magnitude(n)} vertices and {_magnitude(steps)} "
            f"edges or vertex pairs, above the cap of {_FAMILY_SIZE_CAP} per spec"
        )
    return builder(*args)


# ---------------------------------------------------------------------------
# edge-list I/O

# Format: one `tail head conductance` per line, single spaces, `#` comments;
# vertex count is max id + 1; conductances round-trip exactly via repr.


def _parse_triples(lines, source: str, fields: str, error: type[ValueError]):
    """``(lineno, int, int, float)`` per data line of an edge list or demand
    file; blank and ``#`` lines are skipped, and a malformed line raises
    ``error`` prefixed ``source:lineno:``, naming the ``fields`` expected."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise error(f"{source}:{lineno}: expected '{fields}', got {raw.rstrip()!r}")
        try:
            a, b, x = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise error(f"{source}:{lineno}: could not parse fields in {raw.rstrip()!r}")
        yield lineno, a, b, x


def read_graph(path_: str) -> Graph:
    """Read a graph from the edge-list text format, validating each edge once."""
    edges = []
    with open(path_, "r", encoding="utf-8") as fh:
        for lineno, t, h, c in _parse_triples(fh, path_, "tail head conductance", GraphFormatError):
            error = _edge_error(t, h, c)
            if error:
                raise GraphFormatError(f"{path_}:{lineno}: {error}")
            edges.append((t, h, c))
    if not edges:
        raise GraphFormatError(f"{path_}: no edges found")
    tails, heads, conds = zip(*edges)
    return _graph_from_arrays(
        np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64), np.array(conds, dtype=np.float64), None
    )


# ---------------------------------------------------------------------------
# traversal


def _hops(graph: Graph, source: int) -> list[int]:
    """Breadth-first hop counts from ``source``; -1 marks unreachable vertices."""
    adj: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for t, h in zip(graph.tails.tolist(), graph.heads.tolist()):
        adj[t].append(h)
        adj[h].append(t)
    dist = [-1] * graph.n_vertices
    dist[source] = 0
    order = [source]
    for x in order:  # the queue: vertices are appended as they are reached
        d = dist[x] + 1
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = d
                order.append(y)
    return dist


def is_connected(graph: Graph) -> bool:
    """BFS reachability of every vertex from vertex 0, run once per graph.
    Fewer than n-1 edges cannot connect n vertices; that answer comes before
    anything of size n is allocated."""
    n = graph.n_vertices
    if n <= 1:
        return True
    if graph.n_edges < n - 1:
        return False
    return graph._reaches_all
