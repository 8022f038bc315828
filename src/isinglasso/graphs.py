"""Signed graph families: random regular, periodic grid, star, and tree
generators, plus coupling assignment and JSON serialization.

Vertices are 0-based integers. Edges are unordered pairs stored once as
(r, t) with r < t. A graph either has no couplings at all (fresh from a
generator) or a nonzero coupling on every edge (after assign_couplings).
"""
from __future__ import annotations

import itertools
import json
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

REGULAR_RETRY_CAP = 10**6

Edge = tuple[int, int]


def _canonical_edge(r: int, t: int) -> Edge:
    return (r, t) if r < t else (t, r)


# Concrete types, not numbers.Integral / numbers.Real: on a 2-core Xeon VM
# under Python 3.11 an ABC isinstance took 0.7 us and this one 0.1 us, and
# building a p=128 graph runs a few hundred of them.
_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def require_int(name: str, value, low: int) -> int:
    """The integer rule: value as an int if it is a Python or numpy integer
    >= low, else ValueError. A bool is no integer, and neither is 2.5 or 3.0."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_number(name: str, value) -> float:
    """The number rule: value as a float if it is a finite Python or numpy
    integer or float, else ValueError. A bool is no number."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class CouplingScheme:
    """How coupling values are assigned to edges.

    kind:
        "uniform"       -- every edge gets +value
        "mixed"         -- magnitude value, sign drawn i.i.d. (+1 with
                           probability 1/2)
        "degree_scaled" -- every edge gets value / sqrt(max degree)
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("uniform", "mixed", "degree_scaled"):
            raise ValueError(f"unknown coupling scheme kind: {self.kind!r}")
        if require_number("coupling value", self.value) <= 0:
            raise ValueError("coupling magnitude must be positive")

    @classmethod
    def uniform(cls, theta0: float) -> CouplingScheme:
        return cls("uniform", theta0)

    @classmethod
    def mixed(cls, theta0: float) -> CouplingScheme:
        return cls("mixed", theta0)

    @classmethod
    def degree_scaled(cls, amplitude: float) -> CouplingScheme:
        return cls("degree_scaled", amplitude)


@dataclass(frozen=True)
class SignedGraph:
    """Undirected simple graph with optional nonzero edge couplings, held as
    a read-only copy: the couplings checked here are the ones every reader
    sees, whatever the caller later does to the mapping it passed."""

    p: int
    edges: tuple[Edge, ...]
    couplings: Mapping[Edge, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "couplings", MappingProxyType(dict(self.couplings)))
        require_int("vertex count p", self.p, 1)
        seen = set()
        for r, t in self.edges:
            require_int("edge label", r, 0)
            require_int("edge label", t, 0)
            if r == t:
                raise ValueError(f"self-loop at vertex {r}")
            if not r < t < self.p:
                raise ValueError(f"edge ({r},{t}) not canonical or out of range")
            if (r, t) in seen:
                raise ValueError(f"duplicate edge ({r},{t})")
            seen.add((r, t))
        if self.couplings:
            if set(self.couplings) != seen:
                raise ValueError("couplings must cover exactly the edge set")
            for e, j in self.couplings.items():
                if require_number("edge coupling", j) == 0.0:
                    raise ValueError(f"zero coupling on edge {e}")
        # canonical storage order for deterministic serialization
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def __reduce__(self):
        # a mappingproxy does not pickle, and spawned workers are sent graphs
        return SignedGraph, (self.p, self.edges, dict(self.couplings))

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.p, dtype=np.int64)
        for r, t in self.edges:
            deg[r] += 1
            deg[t] += 1
        deg.setflags(write=False)
        return deg

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.p else 0

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.p)]
        for r, t in self.edges:
            adj[r].append(t)
            adj[t].append(r)
        return tuple(tuple(sorted(a)) for a in adj)

    def coupling(self, r: int, t: int) -> float:
        """Coupling of the unordered pair {r, t}; 0.0 for non-edges."""
        return self.couplings.get(_canonical_edge(r, t), 0.0)

    def coupling_matrix(self) -> np.ndarray:
        """Dense symmetric p x p matrix of couplings (zero diagonal)."""
        self._require_couplings()
        J = np.zeros((self.p, self.p))
        for (r, t), j in self.couplings.items():
            J[r, t] = j
            J[t, r] = j
        return J

    def is_acyclic(self) -> bool:
        """Union-find cycle check; True for forests (trees included)."""
        parent = list(range(self.p))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for r, t in self.edges:
            ra, rb = find(r), find(t)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    def _require_couplings(self):
        if self.edges and not self.couplings:
            raise ValueError("graph has no couplings assigned")

    def to_json(self) -> str:
        rows = []
        for r, t in self.edges:
            j = self.couplings.get((r, t))
            rows.append([r, t, j])
        return json.dumps({"p": self.p, "edges": rows})

    @classmethod
    def from_json(cls, text: str) -> SignedGraph:
        """A graph from {"p": p, "edges": [[r, t, coupling or null], ...]}.
        Only the structure is read here: any other shape raises ValueError,
        and the constructor checks the values, first p and the labels, then
        the couplings."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or set(obj) != {"p", "edges"}:
            raise ValueError('a graph must be a JSON object with exactly the keys "p" and "edges"')
        rows = obj["edges"]
        if not isinstance(rows, list) or not all(isinstance(r, list) and len(r) == 3 for r in rows):
            raise ValueError("graph edges must be an array of [r, t, coupling or null] rows")
        graph = cls(p=obj["p"], edges=tuple((r, t) for r, t, _ in rows))
        couplings = {(r, t): j for r, t, j in rows if j is not None}
        return cls(p=graph.p, edges=graph.edges, couplings=couplings) if couplings else graph


def check_regular_degree(p: int, d: int) -> None:
    """The degrees generate_random_regular takes: an integer d with
    3 <= d < p and p*d even, and within the pairing model's reach, else
    ValueError. The pairing drawn has degree k = min(d, p-1-d) (see
    generate_random_regular) and takes about exp((k^2-1)/4 + k^3/(12p))
    draws on average to be simple (McKay and Wormald, 1991), so d is refused
    when that mean exceeds REGULAR_RETRY_CAP / 4: where the estimate holds,
    an admitted degree exhausts the cap with probability below e^-4. Every
    k <= 6 is admitted, and k = 7 from p = 67 on."""
    require_int("degree d", d, 3)
    if d >= p:
        raise ValueError("degree must be < p")
    if (p * d) % 2 != 0:
        raise ValueError("p*d must be even")
    k = min(d, p - 1 - d)
    if (k * k - 1) / 4 + k**3 / (12 * p) > math.log(REGULAR_RETRY_CAP / 4):
        raise ValueError(
            f"degree {d} is out of the pairing model's reach: a {k}-regular pairing "
            f"on {p} vertices takes about exp((k^2-1)/4 + k^3/(12p)) draws on average "
            f"to be simple, more than a quarter of {REGULAR_RETRY_CAP}"
        )


def generate_random_regular(p: int, d: int, seed: int) -> SignedGraph:
    """Uniform simple d-regular graph on p vertices via the configuration
    (pairing) model, redrawing the pairing until it has no self-loop or
    multi-edge: d = 6 takes some 6,000 draws on average. A pairing is
    simple when no pair (u, v) has u = v and the codes min*p + max of its
    pairs are distinct.

    For d > (p-1)/2 the pairing is (p-1-d)-regular and the graph is its
    complement. Complementing maps the d-regular graphs on p labelled
    vertices one to one onto the (p-1-d)-regular ones, so the draw stays
    uniform, and a dense graph such as K8 takes one draw.

    Raises ValueError when check_regular_degree refuses d, RuntimeError
    if no simple pairing is found within REGULAR_RETRY_CAP attempts.
    """
    check_regular_degree(p, d)
    dense = 2 * d > p - 1
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(p, dtype=np.int64), p - 1 - d if dense else d)
    for _ in range(REGULAR_RETRY_CAP):
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        if (u == v).any():
            continue
        codes = np.sort(np.minimum(u, v) * p + np.maximum(u, v))
        if (codes[1:] == codes[:-1]).any():
            continue
        edges = [divmod(c, p) for c in codes.tolist()]
        if dense:
            edges = sorted(set(itertools.combinations(range(p), 2)).difference(edges))
        return SignedGraph(p=p, edges=tuple(edges))
    raise RuntimeError(
        f"failed to generate a simple {d}-regular graph on {p} vertices "
        f"within {REGULAR_RETRY_CAP} pairing attempts"
    )


def generate_grid_periodic(rows: int, cols: int) -> SignedGraph:
    """rows x cols square lattice with periodic boundary (torus, degree 4).

    Both dimensions must be integers >= 3; shorter wrap-arounds would
    duplicate edges and break simplicity.
    """
    rows, cols = require_int("rows", rows, 3), require_int("cols", cols, 3)
    p = rows * cols
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            right = i * cols + (j + 1) % cols
            down = ((i + 1) % rows) * cols + j
            edges.add(_canonical_edge(v, right))
            edges.add(_canonical_edge(v, down))
    return SignedGraph(p=p, edges=tuple(sorted(edges)))


def generate_star(p: int, d: int) -> SignedGraph:
    """Hub vertex 0 joined to vertices 1..d; the remaining p-1-d vertices
    stay isolated so the nominal problem size is p."""
    if require_int("hub degree", d, 1) > p - 1:
        raise ValueError("hub degree must be <= p-1")
    edges = tuple((0, t) for t in range(1, d + 1))
    return SignedGraph(p=p, edges=edges)


def generate_random_tree(p: int, d_max: int, seed: int) -> SignedGraph:
    """Random labelled tree on p vertices with maximum degree <= d_max,
    grown by attaching each new vertex to a uniformly random vertex that
    still has spare degree."""
    p = require_int("p", p, 2)
    require_int("d_max", d_max, 2)
    rng = np.random.default_rng(seed)
    deg = np.zeros(p, dtype=np.int64)
    edges = []
    for v in range(1, p):
        eligible = np.flatnonzero(deg[:v] < d_max)
        u = int(eligible[rng.integers(eligible.size)])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return SignedGraph(p=p, edges=tuple(edges))


def generate_bethe_tree(p: int, d: int) -> SignedGraph:
    """Deterministic tree whose interior vertices all have degree exactly d
    (root included), filled breadth-first until p vertices.

    This is the regular-tree surrogate used for population-level analyses
    of degree-d regular graphs: any closed form that depends only on the
    local degree-d branching holds exactly on its interior.
    """
    p = require_int("p", p, 2)
    require_int("degree d", d, 2)
    edges = []
    queue = deque([0])
    deg = [0] * p
    nxt = 1
    while nxt < p:
        v = queue[0]
        edges.append((v, nxt))
        deg[v] += 1
        deg[nxt] += 1
        queue.append(nxt)
        nxt += 1
        if deg[v] >= d:
            queue.popleft()
    return SignedGraph(p=p, edges=tuple(edges))


def generate_graph(family: str, p: int, d: int, seed: int) -> SignedGraph:
    """A graph of the named family on p vertices, without couplings: d is
    the degree of "rr" and "bethe_tree", the hub degree of "star" and the
    degree cap of "tree"; "grid" is the square torus and needs a square p;
    seed draws "rr" and "tree"."""
    if family == "rr":
        return generate_random_regular(p, d, seed)
    if family == "grid":
        side = math.isqrt(p)
        if side * side != p:
            raise ValueError(f"grid family needs a square p, got {p}")
        return generate_grid_periodic(side, side)
    if family == "star":
        return generate_star(p, d)
    if family == "tree":
        return generate_random_tree(p, d, seed)
    if family == "bethe_tree":
        return generate_bethe_tree(p, d)
    raise ValueError(f"unknown graph family {family!r}")


def assign_couplings(graph: SignedGraph, scheme: CouplingScheme, seed: int = 0) -> SignedGraph:
    """Return a copy of the graph with couplings drawn per the scheme.

    Signs for the mixed scheme are drawn i.i.d. in sorted edge order, so
    the result is deterministic given the seed.
    """
    if not graph.edges:
        raise ValueError("graph has no edges to assign couplings to")
    rng = np.random.default_rng(seed)
    couplings: dict[Edge, float] = {}
    if scheme.kind == "uniform":
        for e in graph.edges:
            couplings[e] = scheme.value
    elif scheme.kind == "mixed":
        signs = np.where(rng.random(len(graph.edges)) < 0.5, 1.0, -1.0)
        for e, s in zip(graph.edges, signs):
            couplings[e] = s * scheme.value
    else:  # degree_scaled
        j = scheme.value / math.sqrt(graph.max_degree)
        for e in graph.edges:
            couplings[e] = j
    return SignedGraph(p=graph.p, edges=graph.edges, couplings=couplings)


def signed_neighborhood_sets(graph: SignedGraph) -> dict[int, dict[int, int]]:
    """Per-vertex signed neighborhoods {r: {t: sign(J_rt)}}; isolated
    vertices map to empty dicts."""
    graph._require_couplings()
    out: dict[int, dict[int, int]] = {r: {} for r in range(graph.p)}
    for (r, t), j in graph.couplings.items():
        s = 1 if j > 0 else -1
        out[r][t] = s
        out[t][r] = s
    return out


def check_node(r: int, p: int, name: str = "node") -> int:
    """The vertex label r as an int: an integer outside 0..p-1 is named out
    of range (a negative index would wrap around), and anything else the
    integer rule refuses (1.5, True) is a ValueError too."""
    if isinstance(r, _INTEGERS) and not 0 <= r < p:
        raise ValueError(f"{name} {r} out of range for p = {p}")
    return require_int(name, r, 0)


def support_vertices(support, p: int, r: int) -> np.ndarray:
    """Sorted vertex labels of node r's support. Rejects a label that
    check_node refuses, for r and every support vertex, r itself and a
    repeated vertex."""
    check_node(r, p)
    labels = sorted(check_node(v, p, "support vertex") for v in support)
    if r in labels:
        raise ValueError("support must not contain the regression vertex")
    for a, b in zip(labels, labels[1:]):
        if a == b:
            raise ValueError(f"support vertex {a} is repeated")
    return np.asarray(labels, dtype=np.int64)
