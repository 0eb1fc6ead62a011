"""Code-family constructors and the alist interchange format."""

from __future__ import annotations

import numpy as np
import pytest

from stabbench.code import (
    classify_checks,
    code_parameters,
    num_logical_qubits,
    validate,
)
from stabbench.constructors import (
    AlistError,
    BipartiteTanner,
    SimpleGraph,
    hypergraph_product,
    ising_code,
    ising_toric,
    load_alist,
    random_biregular_classical,
    save_alist,
    toric_code,
    toric_qubit_index,
)
from stabbench.gf2 import rank
from stabbench.matrices import codespace_projector_dense
from stabbench.pauli import commutes, multiply


def test_ising_path_n2():
    code = ising_code(SimpleGraph.path(2))
    assert code.num_checks == 1
    assert code.checks[0].label() == "ZZ"
    assert num_logical_qubits(code) == 1


def test_ising_path_n5_parameters():
    code = ising_code(SimpleGraph.path(5))
    assert code.num_checks == 4
    p = code_parameters(code)
    assert (p.n, p.k, p.d) == (5, 1, 5)


def test_ising_cycle_has_redundancy():
    code = ising_code(SimpleGraph.cycle(4))
    assert code.num_checks == 4
    assert rank(c.x | c.z for c in code.checks) == 3
    assert num_logical_qubits(code) == 1


def test_graph_connectivity():
    assert not SimpleGraph(0, ()).is_connected()
    assert SimpleGraph(1, ()).is_connected()
    assert SimpleGraph.cycle(5).is_connected()
    assert not SimpleGraph(4, ((0, 1), (2, 3))).is_connected()
    assert not SimpleGraph(3, ((1, 2),)).is_connected()


def test_ising_rejects_disconnected():
    g = SimpleGraph(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="connected"):
        ising_code(g)


def test_toric_basic_counts():
    code = toric_code(2)
    assert code.n == 8 and code.num_checks == 8
    validate(code)
    p = code_parameters(code)
    assert (p.n, p.k, p.d) == (8, 2, 2)
    with pytest.raises(ValueError):
        toric_code(1)


def test_toric3_parameters_and_commutation():
    code = toric_code(3)
    validate(code)  # raises if any pair anticommutes
    p = code_parameters(code)
    assert (p.n, p.k, p.d) == (18, 2, 3)
    # one redundancy per sector
    zrows = [code.checks[i].z for i in code.z_type_indices()]
    assert rank(zrows) == 8


def test_all_check_pairs_commute_toric():
    code = toric_code(3)
    for i in range(code.num_checks):
        for j in range(i + 1, code.num_checks):
            assert commutes(code.checks[i], code.checks[j])


def test_adjacent_plaquette_product_weight6():
    code = toric_code(3)
    z = code.z_type_indices()
    # faces (0,0) and (0,1) share one edge on the 3x3 torus
    b1 = code.checks[z[0]]
    b2 = code.checks[z[1]]
    prod = multiply(b1, b2)
    assert prod.x == 0 and prod.weight() == 6


def test_ising_toric_rejects_small_L():
    with pytest.raises(ValueError):
        ising_toric(1)


def test_ising_toric_check_counts_and_validation():
    code = ising_toric(3)
    # 9 vertex checks + 1 pinned face + 18 sharing-one-edge pairs
    assert code.num_checks == 9 + 1 + 18
    validate(code)
    assert num_logical_qubits(code) == 2


def test_ising_toric_same_ground_space_as_toric_L2():
    p_toric = codespace_projector_dense(toric_code(2))
    p_ising = codespace_projector_dense(ising_toric(2))
    assert np.linalg.norm(p_toric - p_ising) < 1e-12


def test_hgp_rep3_counts():
    rep3 = BipartiteTanner.repetition(3)
    code = hypergraph_product(rep3, rep3)
    assert code.n == 3 * 3 + 2 * 2
    validate(code)
    p = code_parameters(code)
    assert (p.n, p.k, p.d) == (13, 1, 3)


@pytest.mark.parametrize("L", [2, 3])
def test_hgp_of_cyclic_repetition_is_toric(L):
    rep = BipartiteTanner.repetition(L, cyclic=True)
    hgp = hypergraph_product(rep, rep)
    toric = toric_code(L)
    assert hgp.n == toric.n

    # documented bijection: bit-bit (b,bt) -> horizontal edge (b,bt),
    # check-check (c,ct) -> vertical edge (c+1,ct)
    def relabel(q: int) -> int:
        if q < L * L:
            b, bt = divmod(q, L)
            return toric_qubit_index(L, b, bt, 0)
        q -= L * L
        c, ct = divmod(q, L)
        return toric_qubit_index(L, c + 1, ct, 1)

    def mapped(mask: int) -> int:
        out = 0
        for i in range(2 * L * L):
            if (mask >> i) & 1:
                out |= 1 << relabel(i)
        return out

    hgp_set = {(mapped(c.x), mapped(c.z)) for c in hgp.checks}
    toric_set = {(c.x, c.z) for c in toric.checks}
    assert hgp_set == toric_set


def test_random_biregular_degrees_and_determinism():
    t1 = random_biregular_classical(6, 3, 3, seed=42)
    t2 = random_biregular_classical(6, 3, 3, seed=42)
    assert t1.m_cla == 6
    assert t1.bit_degrees() == [3] * 6
    assert t1.check_degrees() == [3] * 6
    assert t1.biadjacency == t2.biadjacency
    t3 = random_biregular_classical(6, 3, 3, seed=43)
    assert t3.bit_degrees() == [3] * 6


def test_random_biregular_infeasible():
    with pytest.raises(ValueError, match="divisible"):
        random_biregular_classical(5, 3, 2 * 2, seed=0)
    with pytest.raises(ValueError, match="exceed 2"):
        random_biregular_classical(6, 2, 3, seed=0)


def test_tanner_rows_are_checked_and_counted():
    t = BipartiteTanner(3, (0b011, 0b110, 0b101))
    assert t.m_cla == 3
    assert t.bit_degrees() == [2, 2, 2]
    with pytest.raises(ValueError, match="check 1 is empty"):
        BipartiteTanner(3, (0b011, 0))
    with pytest.raises(ValueError, match="check 0 has a bit at or past"):
        BipartiteTanner(3, (0b1001,))


def test_alist_round_trip(tmp_path):
    rep3 = BipartiteTanner.repetition(3)
    path = tmp_path / "rep3.alist"
    save_alist(rep3, path)
    back = load_alist(path)
    assert back.n_cla == 3 and back.m_cla == 2
    assert back.biadjacency == rep3.biadjacency


def test_alist_handwritten_fixture(tmp_path):
    content = "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
    path = tmp_path / "fixture.alist"
    path.write_text(content)
    t = load_alist(path)
    assert t.n_cla == 3 and t.m_cla == 2
    assert t.biadjacency[0] == 0b011
    assert t.biadjacency[1] == 0b110


def test_alist_truncated_file(tmp_path):
    path = tmp_path / "bad.alist"
    path.write_text("3 2\n2 2\n1 2 1\n")
    with pytest.raises(AlistError, match="line"):
        load_alist(path)


def test_alist_degree_inconsistency(tmp_path):
    # bit 0 declares degree 2 but lists one check
    content = "3 2\n2 2\n2 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
    path = tmp_path / "bad2.alist"
    path.write_text(content)
    with pytest.raises(AlistError, match="degree"):
        load_alist(path)


def test_constructor_metrics_expectations():
    m = validate(toric_code(3))
    assert (m.q, m.q_prime) == (4, 4)
    m2 = validate(ising_code(SimpleGraph.path(5)))
    assert (m2.q, m2.q_prime) == (2, 2)


def test_constructor_kinds_agree_with_classify_checks():
    # Each constructor passes its kind to from_checks, which refuses one
    # that classify_checks contradicts; every family reaches it here.
    tanner = random_biregular_classical(12, 3, 4, 0)
    codes = {
        "classical": [ising_code(SimpleGraph.path(4)), tanner.to_code()],
        "css": [toric_code(2), toric_code(3), ising_toric(2), ising_toric(3),
                hypergraph_product(tanner, tanner)],
    }
    for kind, members in codes.items():
        for code in members:
            assert code.kind == classify_checks(code.checks) == kind
