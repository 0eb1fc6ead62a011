"""Stabilizer codes: the signed check group, validation, syndromes,
logicals, parameters, code graph.

A code is a list of mutually commuting checks with weights lambda >= 1.
Redundant checks are kept as-is because syndromes are indexed by the full
check list, not by an independent subset.  The logical pairs are the
anticommuting pairs of the symplectic frame (``pauli.symplectic_frame``) of
the centralizer, whose centre is the stabilizer group: no quotient basis is
built.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gf2 import Echelon, min_weight_codeword, nullspace, rank
from .pauli import (PauliString, commutes, power_of_i, product, signed_span,
                    symplectic_frame)


class InvalidCodeError(ValueError):
    """The check set does not define a stabilizer code."""


class CheckGroup:
    """The signed group generated by commuting Pauli strings, in GF(2)
    coordinates.

    The basis is the independent generators, taken in order (``indices``
    holds the generator index of each), plus one element -I when a
    dependent generator's sign differs from the product of its basis
    combination; ``minus`` is then the coordinate of -I, otherwise 0.
    Coordinate c stands for the product of the basis elements its bits
    select, so a product of group elements XORs their coordinates,
    generator i is the integer ``masks[i]``, and the group is the span of
    the masks: 2^rank elements.  Raises InvalidCodeError naming the first
    pair of anticommuting generators.
    """

    def __init__(self, generators, n: int):
        generators = list(generators)
        self.n = n
        self.basis: list[PauliString] = []
        self.indices: list[int] = []
        self.masks: list[int] = []
        # Row b carries basis element b's selector bit above its 2n
        # symplectic bits, so a reduced word records its basis combination.
        self._echelon = Echelon()
        # Odd overlaps of x | z << n with the basis's z | x << n rows: a
        # generator commuting with the basis commutes with the span.
        twisted: list[int] = []
        flipped = []
        for i, g in enumerate(generators):
            row = g.x | g.z << n
            if any((row & t).bit_count() & 1 for t in twisted):
                a, b = next(pair for pair in itertools.combinations(
                    range(len(generators)), 2)
                    if not commutes(*(generators[c] for c in pair)))
                raise InvalidCodeError(f"checks {a} and {b} are anticommuting")
            residual = self._echelon.reduce(row)
            if residual & ((1 << 2 * n) - 1):
                sel = 1 << len(self.basis)
                # The new selector bit lies above every pivot, so the
                # residual plus that bit is the reduced row to insert.
                self._echelon._insert(residual | sel << 2 * n)
                self.indices.append(i)
                self.basis.append(g)
                twisted.append(g.z | g.x << n)
            else:
                sel = residual >> 2 * n
                if self.element(sel).sign != g.sign:
                    flipped.append(i)
            self.masks.append(sel)
        self.minus = 0
        if flipped:
            self.minus = 1 << len(self.basis)
            self.basis.append(PauliString(n, sign=-1))
            for i in flipped:
                self.masks[i] |= self.minus
        self.rank = len(self.basis)

    def _combination(self, row: int):
        """Basis combination with the symplectic row ``row``, or None when
        the row lies outside the span."""
        residual = self._echelon.reduce(row)
        if residual & ((1 << 2 * self.n) - 1):
            return None
        return residual >> 2 * self.n

    def element(self, coord: int) -> PauliString:
        """The ordered product of the basis elements the bits of ``coord``
        select."""
        return product((p for b, p in enumerate(self.basis)
                        if coord >> b & 1), self.n)

    def coordinate(self, p: PauliString):
        """Coordinate of the group element p, or None when p (sign
        included) is not in the group."""
        sel = self._combination(p.x | p.z << self.n)
        if sel is None:
            return None
        if self.element(sel).sign == p.sign:
            return sel
        return sel | self.minus if self.minus else None

    def spans(self, p: PauliString) -> bool:
        """Whether p or -p is in the group."""
        return self._combination(p.x | p.z << self.n) is not None

    def signed_span(self) -> tuple:
        """Every group element, as the int64 (x, z, e mod 4) columns of
        ``pauli.signed_span`` over the basis: row c is the element with
        coordinate c.  Needs n <= 63."""
        return signed_span(np.array([b.x for b in self.basis], dtype=np.int64),
                           np.array([b.z for b in self.basis], dtype=np.int64),
                           [power_of_i(b) for b in self.basis])


@dataclass(frozen=True)
class StabilizerCode:
    n: int
    checks: tuple[PauliString, ...]
    lambdas: tuple[float, ...]
    kind: str = "general"  # "classical" | "css" | "general"

    def __post_init__(self):
        if len(self.checks) != len(self.lambdas):
            raise InvalidCodeError("one weight per check required")
        for c in self.checks:
            if c.n != self.n:
                raise InvalidCodeError("check qubit count differs from code")

    @classmethod
    def from_checks(cls, n, checks, lambdas=None, kind=None) -> "StabilizerCode":
        """The code of these checks, its kind derived by
        ``classify_checks``.  A ``kind`` passed in (a constructor's, or an
        artifact's) must agree with it: ``code_parameters`` and
        ``soundness_profile`` split CSS and classical codes into sectors, so
        a wrong label would certify a wrong distance.  Raises
        InvalidCodeError naming both kinds when it does not."""
        checks = tuple(checks)
        if lambdas is None:
            lambdas = tuple(1.0 for _ in checks)
        else:
            lambdas = tuple(float(v) for v in lambdas)
        derived = classify_checks(checks)
        if kind is not None and kind != derived:
            raise InvalidCodeError(
                f"checks of kind {derived!r} labelled {kind!r}")
        return cls(n, checks, lambdas, derived)

    @property
    def num_checks(self) -> int:
        return len(self.checks)

    @functools.cached_property
    def patch_groups(self) -> dict:
        """The patch groups of ``quasilocal`` by support, each built on
        first use and kept for the code's lifetime (not a field: equality,
        hashing and ``dataclasses.replace`` ignore it)."""
        return {}

    def x_type_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.checks) if c.z == 0)

    def z_type_indices(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.checks) if c.x == 0)


def classify_checks(checks) -> str:
    if all(c.x == 0 for c in checks):
        return "classical"
    if all(c.x == 0 or c.z == 0 for c in checks):
        return "css"
    return "general"


@dataclass(frozen=True)
class CodeGraphMetrics:
    """Interaction-graph data: qubits are adjacent when they share a check."""

    n: int
    edges: frozenset
    delta: int
    q: int
    q_prime: int
    ball_sizes: tuple  # ball_sizes[i][r] = |B_{i,r}|, up to the graph diameter

    def gamma_shell(self, i: int, r: int) -> int:
        if r == 0:
            return 1
        prof = self.ball_sizes[i]
        if r >= len(prof):
            return 0
        return prof[r] - prof[r - 1]

    def gamma_shell_max(self, r: int) -> int:
        """Worst-case shell volume gamma(r) over all vertices."""
        return max((self.gamma_shell(i, r) for i in range(self.n)), default=0)

    @property
    def diameter(self) -> int:
        return max((len(p) - 1 for p in self.ball_sizes), default=0)


def validate(code: StabilizerCode) -> CodeGraphMetrics:
    """Check commutation/weight invariants and compute code-graph metrics.

    Raises InvalidCodeError for lambda < 1, for checks with -1 signs, and
    through ``CheckGroup`` for the first pair of anticommuting checks and
    for a check group holding -I (an empty code space).
    """
    for i, lam in enumerate(code.lambdas):
        if lam < 1.0:
            raise InvalidCodeError(f"check {i} has weight {lam} < 1")
    for i, c in enumerate(code.checks):
        if c.sign != 1:
            raise InvalidCodeError(f"check {i} has sign -1")
    group = CheckGroup(code.checks, code.n)
    for i, m in enumerate(group.masks):
        if m & group.minus:  # The code space is empty.
            combo = [c for b, c in enumerate(group.indices) if m >> b & 1]
            raise InvalidCodeError(
                f"checks {sorted(combo + [i])} multiply to -I")
    adj = _adjacency(code)
    per_qubit = [0] * code.n
    for c in code.checks:
        for qb in c.support():
            per_qubit[qb] += 1
    ball_sizes = tuple(
        tuple(itertools.accumulate(map(len, _bfs_layers(adj, (i,)))))
        for i in range(code.n)
    )
    return CodeGraphMetrics(
        n=code.n,
        edges=frozenset((a, b) for a, near in enumerate(adj) for b in near
                        if a < b),
        delta=max(map(len, adj), default=0),
        q=max((c.weight() for c in code.checks), default=0),
        q_prime=max(per_qubit, default=0),
        ball_sizes=ball_sizes,
    )


def _adjacency(code: StabilizerCode) -> list[set[int]]:
    """The code graph as neighbour sets: qubits sharing a check."""
    adj: list[set[int]] = [set() for _ in range(code.n)]
    for c in code.checks:
        sup = c.support()
        for qb in sup:
            adj[qb] |= sup - {qb}
    return adj


def _bfs_layers(adj, sources) -> list[list[int]]:
    """Breadth-first layers of the code graph: layer d holds the qubits at
    distance d from the sources, up to the last nonempty layer."""
    seen = set(sources)
    layers = [list(seen)]
    while True:
        nxt = []
        for v in layers[-1]:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return layers
        layers.append(nxt)


def graph_distance(metrics: CodeGraphMetrics, sources) -> dict:
    """BFS distances on the code graph from a set of source qubits."""
    adj: list[set[int]] = [set() for _ in range(metrics.n)]
    for a, b in metrics.edges:
        adj[a].add(b)
        adj[b].add(a)
    return {q: d for d, layer in enumerate(_bfs_layers(adj, sources))
            for q in layer}


def ball(code: StabilizerCode, sources, r: int) -> frozenset:
    """The qubits within code-graph distance r of the sources."""
    return frozenset().union(*_bfs_layers(_adjacency(code), sources)[:r + 1])


def syndrome_of(code: StabilizerCode, p: PauliString) -> int:
    """Bit c is set iff p anticommutes with check c."""
    if p.n != code.n:
        raise ValueError("qubit count mismatch")
    bits = 0
    for i, c in enumerate(code.checks):
        if not commutes(c, p):
            bits |= 1 << i
    return bits


def num_logical_qubits(code: StabilizerCode) -> int:
    return code.n - rank(c.x | (c.z << code.n) for c in code.checks)


def logicals(code: StabilizerCode) -> list[tuple[PauliString, PauliString]]:
    """k anticommuting logical pairs, each commuting with every check.

    The pairs are those of the symplectic frame (``pauli.symplectic_frame``)
    of the centralizer, the nullspace of the twisted check rows
    z | x << n.  The frame's centre is the stabilizer group, so no pair
    member lies in the check span.  For CSS and classical codes no twisted
    row mixes the two halves, so every centralizer basis vector, and every
    pair member, is pure X or pure Z; each pair is turned X-first.  Signs
    are fixed to +1.  Raises InvalidCodeError unless the frame has k pairs.
    """
    n = code.n
    k = num_logical_qubits(code)
    centralizer = nullspace([c.z | c.x << n for c in code.checks], 2 * n)
    mask = (1 << n) - 1
    g, basis = symplectic_frame(n, [v & mask for v in centralizer],
                                [v >> n for v in centralizer])
    if g != k:
        raise InvalidCodeError(
            f"logical pairing found {g} pairs, expected k={k}")
    out = []
    for (ax, az, _), (bx, bz, _) in zip(basis[:g], basis[g:2 * g]):
        if code.kind != "general" and not ax:  # a pure Z member goes second
            ax, az, bx, bz = bx, bz, ax, az
        out.append((PauliString(n, ax, az), PauliString(n, bx, bz)))
    return out


@dataclass(frozen=True)
class CodeParameters:
    n: int
    k: int
    d: int
    d_x: int | None = None
    d_z: int | None = None
    certified: bool = True  # False: d is a certified lower bound, not exact

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "d_x": self.d_x,
            "d_z": self.d_z,
            "certified": self.certified,
        }


def _sector_distance(check_rows, logical_rows, w_max):
    """Min weight over nonzero logical cosets of the sector rowspace."""
    k = len(logical_rows)
    best = None
    certified = True
    for combo in range(1, 1 << k):
        coset = 0
        for i in range(k):
            if (combo >> i) & 1:
                coset ^= logical_rows[i]
        w = min_weight_codeword(check_rows, coset, w_max)
        if w is None:
            certified = False
            continue
        if best is None or w < best:
            best = w
    if best is None:
        return w_max + 1, False
    return best, certified


def code_parameters(code: StabilizerCode, w_max: int | None = None) -> CodeParameters:
    """n, k and exact distances (or certified lower bounds past w_max).

    CSS and classical codes get separate X- and Z-sector distances; for a
    classical code ``d`` reports the X distance, following the convention
    that only X-type logicals count.
    """
    if w_max is None:
        w_max = min(code.n, 8)
    k = num_logical_qubits(code)
    if k == 0:
        return CodeParameters(code.n, 0, code.n, None, None, True)
    pairs = logicals(code)
    if code.kind in ("css", "classical"):
        x_checks = [code.checks[i].x for i in code.x_type_indices()]
        z_checks = [code.checks[i].z for i in code.z_type_indices()]
        lx = [p.x for p, _ in pairs]
        lz = [q.z for _, q in pairs]
        d_x, cert_x = _sector_distance(x_checks, lx, w_max)
        d_z, cert_z = _sector_distance(z_checks, lz, w_max)
        if code.kind == "classical":
            return CodeParameters(code.n, k, d_x, d_x, d_z, cert_x)
        return CodeParameters(code.n, k, min(d_x, d_z), d_x, d_z, cert_x and cert_z)
    d, cert = _generic_distance(code, w_max)
    return CodeParameters(code.n, k, d, None, None, cert)


def _generic_distance(code, w_max):
    """Brute-force over low-weight Paulis commuting with all checks."""
    n = code.n
    stabilizers = Echelon(c.x | (c.z << n) for c in code.checks)
    # A packed Pauli x | (z << n) anticommutes with a check exactly when
    # its overlap with the check's twisted row z | (x << n) is odd.
    twisted = [c.z | (c.x << n) for c in code.checks]
    for w in range(1, w_max + 1):
        for sup in itertools.combinations(range(n), w):
            for pattern in itertools.product("XZY", repeat=w):
                x = z = 0
                for qb, ch in zip(sup, pattern):
                    if ch in ("X", "Y"):
                        x |= 1 << qb
                    if ch in ("Z", "Y"):
                        z |= 1 << qb
                packed = x | (z << n)
                if any((packed & t).bit_count() & 1 for t in twisted):
                    continue
                if stabilizers.reduce(packed):
                    return w, True
    return w_max + 1, False
