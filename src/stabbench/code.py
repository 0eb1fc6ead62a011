"""Stabilizer codes: validation, syndromes, logicals, parameters, code graph.

A code is a list of mutually commuting checks with weights lambda >= 1.
Redundant checks are kept as-is because syndromes are indexed by the full
check list, not by an independent subset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf2 import BitMatrix, BitVector, Echelon, min_weight_codeword, nullspace, rank
from .pauli import PauliString, commutes, product


class InvalidCodeError(ValueError):
    """The check set does not define a stabilizer code."""


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
        checks = tuple(checks)
        if lambdas is None:
            lambdas = tuple(1.0 for _ in checks)
        else:
            lambdas = tuple(float(v) for v in lambdas)
        if kind is None:
            kind = classify_checks(checks)
        return cls(n, checks, lambdas, kind)

    @property
    def num_checks(self) -> int:
        return len(self.checks)

    def check_support_matrix(self) -> BitMatrix:
        return BitMatrix.from_rows(
            [BitVector(self.n, c.x | c.z) for c in self.checks], self.n
        )

    def symplectic_matrix(self) -> BitMatrix:
        """Checks as 2n-bit rows x | (z << n)."""
        return BitMatrix.from_rows(
            [BitVector(2 * self.n, c.x | (c.z << self.n)) for c in self.checks],
            2 * self.n,
        )

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

    def gamma_cumulative(self, i: int, r: int) -> int:
        prof = self.ball_sizes[i]
        return prof[min(r, len(prof) - 1)]

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

    Raises InvalidCodeError naming the first offending pair when two checks
    anticommute; also rejects lambda < 1 and checks with -1 signs.
    """
    for i, lam in enumerate(code.lambdas):
        if lam < 1.0:
            raise InvalidCodeError(f"check {i} has weight {lam} < 1")
    for i, c in enumerate(code.checks):
        if c.sign != 1:
            raise InvalidCodeError(f"check {i} has sign -1")
    for i, j in itertools.combinations(range(code.num_checks), 2):
        if not commutes(code.checks[i], code.checks[j]):
            raise InvalidCodeError(
                f"checks {i} and {j} anticommute: "
                f"{code.checks[i]} vs {code.checks[j]}"
            )
    # Redundant products must equal +I, otherwise the codespace is empty.
    for combo in nullspace(code.symplectic_matrix().transpose()):
        sel = [code.checks[i] for i in combo.indices()]
        if sel and product(sel).sign != 1:
            raise InvalidCodeError(
                f"redundant check product over {combo.indices()} equals -I"
            )
    q = max((c.weight() for c in code.checks), default=0)
    per_qubit = [0] * code.n
    adj: list[set[int]] = [set() for _ in range(code.n)]
    edges = set()
    for c in code.checks:
        sup = sorted(c.support())
        for qb in sup:
            per_qubit[qb] += 1
        for a, b in itertools.combinations(sup, 2):
            edges.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
    q_prime = max(per_qubit, default=0)
    delta = max((len(s) for s in adj), default=0)
    ball_sizes = tuple(
        tuple(itertools.accumulate(map(len, _bfs_layers(adj, (i,)))))
        for i in range(code.n)
    )
    return CodeGraphMetrics(
        n=code.n,
        edges=frozenset(edges),
        delta=delta,
        q=q,
        q_prime=q_prime,
        ball_sizes=ball_sizes,
    )


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


def syndrome_of(code: StabilizerCode, p: PauliString) -> BitVector:
    """Bit c is set iff p anticommutes with check c."""
    if p.n != code.n:
        raise ValueError("qubit count mismatch")
    bits = 0
    for i, c in enumerate(code.checks):
        if not commutes(c, p):
            bits |= 1 << i
    return BitVector(code.num_checks, bits)


def num_logical_qubits(code: StabilizerCode) -> int:
    return code.n - rank(code.symplectic_matrix())


def _symplectic_form(u: int, v: int, n: int) -> int:
    mask = (1 << n) - 1
    ux, uz = u & mask, u >> n
    vx, vz = v & mask, v >> n
    return ((ux & vz).bit_count() + (uz & vx).bit_count()) % 2


def logicals(code: StabilizerCode) -> list[tuple[PauliString, PauliString]]:
    """k anticommuting logical pairs, each commuting with every check.

    For CSS and classical codes the first member of each pair is pure X and
    the second pure Z.  Signs are fixed to +1.
    """
    n = code.n
    k = num_logical_qubits(code)
    if k == 0:
        return []
    stabilizers = Echelon(c.x | (c.z << n) for c in code.checks)
    if code.kind in ("css", "classical"):
        quotient = _css_quotient_basis(code, stabilizers)
    else:
        quotient = _general_quotient_basis(code, stabilizers)
    pairs = _symplectic_pairs(quotient, n)
    if len(pairs) != k:
        raise InvalidCodeError(
            f"logical pairing found {len(pairs)} pairs, expected k={k}"
        )
    mask = (1 << n) - 1
    out = []
    for u, v in pairs:
        pu = PauliString(n, u & mask, u >> n)
        pv = PauliString(n, v & mask, v >> n)
        out.append((pu, pv))
    return out


def _general_quotient_basis(code, stabilizers: Echelon) -> list[int]:
    n = code.n
    twisted = BitMatrix.from_rows(
        [BitVector(2 * n, c.z | (c.x << n)) for c in code.checks], 2 * n
    )
    return [v.bits for v in nullspace(twisted) if stabilizers.add(v.bits)]


def _css_quotient_basis(code, stabilizers: Echelon) -> list[int]:
    """Centralizer-mod-stabilizer basis with pure-X vectors listed first."""
    n = code.n
    z_rows = [code.checks[i].z for i in code.z_type_indices()]
    x_rows = [code.checks[i].x for i in code.x_type_indices()]
    # X-type logical candidates: even overlap with every Z check support.
    zmat = BitMatrix.from_rows([BitVector(n, r) for r in z_rows], n)
    xmat = BitMatrix.from_rows([BitVector(n, r) for r in x_rows], n)
    candidates = [v.bits for v in nullspace(zmat)]
    candidates += [v.bits << n for v in nullspace(xmat)]  # z part only
    return [v for v in candidates if stabilizers.add(v)]


def _symplectic_pairs(vectors: list[int], n: int) -> list[tuple[int, int]]:
    vecs = list(vectors)
    pairs = []
    while vecs:
        u = vecs.pop(0)
        partner_idx = None
        for i, v in enumerate(vecs):
            if _symplectic_form(u, v, n):
                partner_idx = i
                break
        if partner_idx is None:
            continue
        v = vecs.pop(partner_idx)
        vecs = [
            w
            ^ (u if _symplectic_form(w, v, n) else 0)
            ^ (v if _symplectic_form(w, u, n) else 0)
            for w in vecs
        ]
        pairs.append((u, v))
    return pairs


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


def _sector_distance(code, check_rows, logical_rows, w_max):
    """Min weight over nonzero logical cosets of the sector rowspace."""
    n = code.n
    gen = BitMatrix.from_rows([BitVector(n, r) for r in check_rows], n)
    k = len(logical_rows)
    best = None
    certified = True
    for combo in range(1, 1 << k):
        coset = 0
        for i in range(k):
            if (combo >> i) & 1:
                coset ^= logical_rows[i]
        w = min_weight_codeword(gen, BitVector(n, coset), w_max)
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
        d_x, cert_x = _sector_distance(code, x_checks, lx, w_max)
        d_z, cert_z = _sector_distance(code, z_checks, lz, w_max)
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


def hamiltonian_description(code: StabilizerCode) -> tuple:
    """The (lambda, check) term list of H0 = sum lambda (I - Q)/2."""
    return tuple(zip(code.lambdas, code.checks))
