"""Code families: Ising/repetition graphs, 2D toric, the Ising-coupled toric
variant, hypergraph products, random biregular Tanner graphs, and alist IO.

Torus conventions: qubits live on edges, addressed (x, y, o) with o = 0 for
the horizontal edge leaving vertex (x, y) in +x and o = 1 for the vertical
edge in +y; the flat index is (x*L + y)*2 + o, so qubit numbering is
lexicographic in (x, y, o) and reproducible across runs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .code import StabilizerCode, _bfs_layers
from .pauli import PauliString


@dataclass(frozen=True)
class SimpleGraph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < self.num_vertices and 0 <= b < self.num_vertices):
                raise ValueError(f"edge ({a},{b}) out of range")

    @classmethod
    def path(cls, n: int) -> "SimpleGraph":
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "SimpleGraph":
        return cls(n, tuple((i, (i + 1) % n) for i in range(n)))

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return False
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return sum(map(len, _bfs_layers(adj, (0,)))) == self.num_vertices


@dataclass(frozen=True)
class BipartiteTanner:
    """Classical Tanner graph: ``biadjacency`` holds one int row per check,
    bit b set when the check contains bit b of ``n_cla``."""

    n_cla: int
    biadjacency: tuple[int, ...]

    def __post_init__(self):
        for i, row in enumerate(self.biadjacency):
            if not row:
                raise ValueError(f"check {i} is empty")
            if row >> self.n_cla:
                raise ValueError(
                    f"check {i} has a bit at or past n_cla = {self.n_cla}")

    @property
    def m_cla(self) -> int:
        return len(self.biadjacency)

    @classmethod
    def repetition(cls, n: int, cyclic: bool = False) -> "BipartiteTanner":
        g = SimpleGraph.cycle(n) if cyclic else SimpleGraph.path(n)
        return cls(n, tuple(1 << a | 1 << b for a, b in g.edges))

    def bit_degrees(self) -> list[int]:
        return [sum(row >> j & 1 for row in self.biadjacency)
                for j in range(self.n_cla)]

    def check_degrees(self) -> list[int]:
        return [row.bit_count() for row in self.biadjacency]

    def to_code(self, lam: float = 1.0) -> StabilizerCode:
        """Z-check stabilizer code with one check per Tanner row."""
        checks = [PauliString(self.n_cla, 0, row) for row in self.biadjacency]
        return StabilizerCode.from_checks(
            self.n_cla, checks, [lam] * len(checks), kind="classical"
        )


def ising_code(g: SimpleGraph, lam: float = 1.0) -> StabilizerCode:
    """Classical code with one Z_i Z_j check per edge of a connected graph."""
    if not g.is_connected():
        raise ValueError("interaction graph must be connected")
    checks = [
        PauliString.from_support(g.num_vertices, "Z", e) for e in g.edges
    ]
    return StabilizerCode.from_checks(
        g.num_vertices, checks, [lam] * len(checks), kind="classical"
    )


def repetition_code(n: int, lam: float = 1.0) -> StabilizerCode:
    return ising_code(SimpleGraph.path(n), lam=lam)


def toric_qubit_index(L: int, x: int, y: int, o: int) -> int:
    return ((x % L) * L + (y % L)) * 2 + o


def toric_vertex_support(L: int, x: int, y: int) -> tuple[int, ...]:
    idx = toric_qubit_index
    return (idx(L, x, y, 0), idx(L, x - 1, y, 0), idx(L, x, y, 1), idx(L, x, y - 1, 1))


def toric_face_support(L: int, x: int, y: int) -> tuple[int, ...]:
    idx = toric_qubit_index
    return (idx(L, x, y, 0), idx(L, x, y + 1, 0), idx(L, x, y, 1), idx(L, x + 1, y, 1))


def toric_code(L: int) -> StabilizerCode:
    """Standard toric code on the L x L torus: n = 2L^2 edge qubits."""
    if L < 2:
        raise ValueError("toric code needs L >= 2")
    n = 2 * L * L
    checks = []
    for x in range(L):
        for y in range(L):
            checks.append(PauliString.from_support(n, "X", toric_vertex_support(L, x, y)))
    for x in range(L):
        for y in range(L):
            checks.append(PauliString.from_support(n, "Z", toric_face_support(L, x, y)))
    return StabilizerCode.from_checks(n, checks, kind="css")


def toric_face_masks(L: int) -> list[int]:
    masks = []
    for x in range(L):
        for y in range(L):
            m = 0
            for q in toric_face_support(L, x, y):
                m |= 1 << q
            masks.append(m)
    return masks


def ising_toric(L: int) -> StabilizerCode:
    """Toric variant with Ising-coupled plaquettes: checks are the vertex
    operators, a single plaquette at the origin, and all products B_f B_f'
    of faces sharing one edge.

    Same ground space as toric_code(L), but small plaquette stabilizers far
    from the pinned face only expand into long chains of pair checks.  At
    L = 2 opposite faces wrap and share two edges; adjacency there means
    "share at least one edge" so the pair checks still generate the full
    plaquette group (degenerate-torus special case).
    """
    if L < 2:
        raise ValueError("ising_toric needs L >= 2")
    n = 2 * L * L
    checks = []
    for x in range(L):
        for y in range(L):
            checks.append(PauliString.from_support(n, "X", toric_vertex_support(L, x, y)))
    faces = toric_face_masks(L)
    checks.append(PauliString(n, 0, faces[0]))
    for fa, fb in itertools.combinations(range(len(faces)), 2):
        shared = (faces[fa] & faces[fb]).bit_count()
        adjacent = shared == 1 if L >= 3 else shared >= 1
        if adjacent:
            checks.append(PauliString(n, 0, faces[fa] ^ faces[fb]))
    return StabilizerCode.from_checks(n, checks, kind="css")


def _bits(mask: int, n: int) -> tuple[int, ...]:
    return tuple(b for b in range(n) if mask >> b & 1)


def hypergraph_product(c1: BipartiteTanner, c2: BipartiteTanner) -> StabilizerCode:
    """CSS hypergraph product of two classical Tanner graphs.

    Qubits: bit-bit pairs (b, bt) first (lexicographic), then check-check
    pairs (c, ct).  The Z check at (b, ct) acts on (b, bt) for every bit bt
    of check ct and on (c, ct) for every check c containing bit b; the X
    check at (c, bt) acts on (c, ct) for every check ct containing bt and
    on (b, bt) for every bit b of check c.
    """
    n1, m1 = c1.n_cla, c1.m_cla
    n2, m2 = c2.n_cla, c2.m_cla
    n = n1 * n2 + m1 * m2

    def bb(b: int, bt: int) -> int:
        return b * n2 + bt

    def cc(c: int, ct: int) -> int:
        return n1 * n2 + c * m2 + ct

    rows1, rows2 = c1.biadjacency, c2.biadjacency
    bits_of_check1 = [_bits(r, n1) for r in rows1]
    bits_of_check2 = [_bits(r, n2) for r in rows2]
    checks_of_bit1 = [
        tuple(c for c in range(m1) if rows1[c] >> b & 1) for b in range(n1)
    ]
    checks_of_bit2 = [
        tuple(c for c in range(m2) if rows2[c] >> b & 1) for b in range(n2)
    ]

    checks = []
    for c in range(m1):
        for bt in range(n2):
            sup = [cc(c, ct) for ct in checks_of_bit2[bt]]
            sup += [bb(b, bt) for b in bits_of_check1[c]]
            checks.append(PauliString.from_support(n, "X", sup))
    for b in range(n1):
        for ct in range(m2):
            sup = [bb(b, bt) for bt in bits_of_check2[ct]]
            sup += [cc(c, ct) for c in checks_of_bit1[b]]
            checks.append(PauliString.from_support(n, "Z", sup))
    return StabilizerCode.from_checks(n, checks, kind="css")


def random_biregular_classical(
    n_bits: int, deg_bit: int, deg_check: int, seed: int
) -> BipartiteTanner:
    """Configuration-model bipartite graph with exact (deg_bit, deg_check)
    degrees; parallel edges are resolved by re-pairing stub pairs.

    Deterministic for a fixed seed.  Raises on infeasible degree sequences
    or when 100 repair rounds leave a parallel edge.
    """
    if deg_bit <= 2 or deg_check <= 2:
        raise ValueError("degrees must exceed 2")
    total = n_bits * deg_bit
    if total % deg_check:
        raise ValueError(
            f"{n_bits} bits of degree {deg_bit} give {total} stubs, "
            f"not divisible by check degree {deg_check}"
        )
    m_checks = total // deg_check
    rng = random.Random(seed)
    bit_stubs = [i // deg_bit for i in range(total)]
    check_stubs = [i // deg_check for i in range(total)]
    rng.shuffle(check_stubs)
    pairs = list(zip(bit_stubs, check_stubs))
    for _ in range(100):
        seen = set()
        dup_positions = []
        for pos, pr in enumerate(pairs):
            if pr in seen:
                dup_positions.append(pos)
            else:
                seen.add(pr)
        if not dup_positions:
            break
        for pos in dup_positions:
            other = rng.randrange(total)
            b1, c1 = pairs[pos]
            b2, c2 = pairs[other]
            pairs[pos] = (b1, c2)
            pairs[other] = (b2, c1)
    else:
        raise RuntimeError("could not remove parallel edges within the retry budget")
    rows = [0] * m_checks
    for b, c in pairs:
        rows[c] |= 1 << b
    return BipartiteTanner(n_bits, tuple(rows))


class AlistError(ValueError):
    pass


def load_alist(path) -> BipartiteTanner:
    """Parse the standard alist interchange format.

    Layout: "n m", then "max_bit_degree max_check_degree", n bit degrees,
    m check degrees, n 1-indexed check lists (one per bit), m 1-indexed bit
    lists (one per check).  Zero entries are padding.
    """
    with open(path) as fh:
        raw = fh.read().split("\n")
    lines = [ln.split() for ln in raw]

    def ints(lineno: int) -> list[int]:
        if lineno >= len(lines) or not lines[lineno]:
            raise AlistError(f"line {lineno + 1}: unexpected end of file")
        try:
            return [int(tok) for tok in lines[lineno]]
        except ValueError as exc:
            raise AlistError(f"line {lineno + 1}: {exc}") from None

    header = ints(0)
    if len(header) != 2:
        raise AlistError("line 1: expected 'n m'")
    n, m = header
    maxdeg = ints(1)
    if len(maxdeg) != 2:
        raise AlistError("line 2: expected two maximum degrees")
    bit_deg = ints(2)
    check_deg = ints(3)
    if len(bit_deg) != n:
        raise AlistError(f"line 3: expected {n} bit degrees, got {len(bit_deg)}")
    if len(check_deg) != m:
        raise AlistError(f"line 4: expected {m} check degrees, got {len(check_deg)}")
    if max(bit_deg, default=0) > maxdeg[0] or max(check_deg, default=0) > maxdeg[1]:
        raise AlistError("line 2: declared maximum degrees are exceeded")
    rows = [0] * m
    for b in range(n):
        entries = [e for e in ints(4 + b) if e != 0]
        if len(entries) != bit_deg[b]:
            raise AlistError(
                f"line {5 + b}: bit {b} lists {len(entries)} checks, "
                f"degree says {bit_deg[b]}"
            )
        for e in entries:
            if not 1 <= e <= m:
                raise AlistError(f"line {5 + b}: check index {e} out of range")
            rows[e - 1] |= 1 << b
    for c in range(m):
        entries = [e for e in ints(4 + n + c) if e != 0]
        if len(entries) != check_deg[c]:
            raise AlistError(
                f"line {5 + n + c}: check {c} lists {len(entries)} bits, "
                f"degree says {check_deg[c]}"
            )
        mask = 0
        for e in entries:
            if not 1 <= e <= n:
                raise AlistError(f"line {5 + n + c}: bit index {e} out of range")
            mask |= 1 << (e - 1)
        if mask != rows[c]:
            raise AlistError(
                f"line {5 + n + c}: check {c} neighbor list disagrees with "
                "the bit lists"
            )
    return BipartiteTanner(n, tuple(rows))


def save_alist(tanner: BipartiteTanner, path) -> None:
    n, m = tanner.n_cla, tanner.m_cla
    bit_deg = tanner.bit_degrees()
    check_deg = tanner.check_degrees()
    lines = [
        f"{n} {m}",
        f"{max(bit_deg, default=0)} {max(check_deg, default=0)}",
        " ".join(str(d) for d in bit_deg),
        " ".join(str(d) for d in check_deg),
    ]
    for b in range(n):
        cs = [c + 1 for c in range(m) if tanner.biadjacency[c] >> b & 1]
        lines.append(" ".join(str(c) for c in cs))
    for c in range(m):
        bs = [b + 1 for b in _bits(tanner.biadjacency[c], n)]
        lines.append(" ".join(str(b) for b in bs))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
