"""Pauli algebra against dense-matrix oracles."""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np
import pytest

from stabbench.gf2 import _words
from stabbench.matrices import operator_dense
from stabbench.pauli import (
    PauliString,
    columns,
    commutes,
    hermitian_phase,
    multiply,
    multiply_phase,
    odd_overlap,
    power_of_i,
    product,
    restrict,
    signed_span,
    times,
)


def pauli_matrix(p: PauliString) -> np.ndarray:
    return operator_dense(p.n, columns([(1.0, p)]))


def all_paulis(n):
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliString(n, x, z)


def test_label_round_trip():
    p = PauliString.from_label("XIZY")
    assert p.label() == "XIZY"
    assert p.weight() == 3
    assert p.support() == frozenset({0, 2, 3})


def test_commutes_examples():
    x12 = PauliString.from_label("XXI")
    z23 = PauliString.from_label("IZZ")
    assert not commutes(x12, z23)
    assert commutes(x12, x12)
    with pytest.raises(ValueError):
        commutes(x12, PauliString.from_label("XX"))


def test_commutes_matches_dense_commutator_small():
    for n in (1, 2):
        for p, q in itertools.product(all_paulis(n), repeat=2):
            mp, mq = pauli_matrix(p), pauli_matrix(q)
            dense = np.allclose(mp @ mq, mq @ mp)
            assert commutes(p, q) == dense


def test_multiply_identity_and_involution():
    p = PauliString.from_label("XZY")
    ident = PauliString.identity(3)
    assert multiply(p, ident) == p
    sq = multiply(p, p)
    assert sq == ident


def test_multiply_sign_convention():
    xx = PauliString.from_label("XX")
    zz = PauliString.from_label("ZZ")
    prod = multiply(xx, zz)
    assert prod.label() == "YY" and prod.sign == -1
    assert np.allclose(pauli_matrix(prod), pauli_matrix(xx) @ pauli_matrix(zz))


def test_multiply_rejects_anticommuting():
    with pytest.raises(ValueError):
        multiply(PauliString.from_label("X"), PauliString.from_label("Z"))


def test_multiply_matches_dense_for_random_commuting_pairs():
    rng = random.Random(2)
    n = 4
    count = 0
    while count < 60:
        p = PauliString(n, rng.getrandbits(n), rng.getrandbits(n),
                        rng.choice([1, -1]))
        q = PauliString(n, rng.getrandbits(n), rng.getrandbits(n),
                        rng.choice([1, -1]))
        if not commutes(p, q):
            continue
        count += 1
        assert np.allclose(
            pauli_matrix(multiply(p, q)), pauli_matrix(p) @ pauli_matrix(q)
        )


def test_restrict_renumbers_in_the_given_order():
    p = PauliString.from_label("XIZY", sign=-1)
    assert restrict(p, (3, 0)) == PauliString.from_label("YX", sign=-1)
    assert restrict(p, (1,)) == PauliString.from_label("I", sign=-1)
    assert restrict(p, ()) == PauliString(0, sign=-1)
    # On a region holding p's support the restriction is p itself: with
    # qubit 1 as the new highest bit, new bit j is old qubit order[j].
    lifted = np.kron(np.eye(2), pauli_matrix(restrict(p, (0, 2, 3))))
    order = (0, 2, 3, 1)
    old = [sum(((b >> j) & 1) << q for j, q in enumerate(order))
           for b in range(16)]
    assert np.allclose(lifted, pauli_matrix(p)[np.ix_(old, old)])


def test_columns_refuse_past_63_qubits():
    # Bit 62 is the last of an int64 mask; past 63 qubits the refusal comes
    # before any mask is packed, even for strings on low qubits only.
    c, x, z = columns([(0.5, PauliString.single(63, "Y", 62))])
    assert x.tolist() == z.tolist() == [1 << 62]
    with pytest.raises(ValueError, match="64 qubits exceeds the limit of 63"):
        columns([(0.5, PauliString.single(64, "X", 0))])


def test_empty_product_needs_n():
    assert product([], n=3) == PauliString.identity(3)
    with pytest.raises(ValueError):
        product([])


def test_dense_pauli_is_hermitian_and_involutory():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        p = PauliString(n, rng.getrandbits(n), rng.getrandbits(n),
                        rng.choice([1, -1]))
        m = pauli_matrix(p)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(1 << n))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.data())
def test_property_symplectic_form_matches_dense(n, data):
    p = PauliString(n, data.draw(st.integers(0, (1 << n) - 1)),
                    data.draw(st.integers(0, (1 << n) - 1)))
    q = PauliString(n, data.draw(st.integers(0, (1 << n) - 1)),
                    data.draw(st.integers(0, (1 << n) - 1)))
    mp, mq = pauli_matrix(p), pauli_matrix(q)
    assert commutes(p, q) == np.allclose(mp @ mq, mq @ mp)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([5, 63, 70]), st.data())
def test_times_matches_multiply_phase(n, data):
    # String by string: times and hermitian_phase against multiply_phase,
    # and odd_overlap against commutes, on int64 columns (n < 64) and on
    # rows of uint64 words (n = 70).  Overlapping x and z bits are Y factors.
    string = st.builds(lambda x, z, sign: PauliString(n, x, z, sign),
                       st.integers(0, (1 << n) - 1),
                       st.integers(0, (1 << n) - 1), st.sampled_from((1, -1)))
    pairs = data.draw(st.lists(st.tuples(string, string), min_size=1,
                               max_size=8))
    def pack(masks):
        return np.array(masks, dtype=np.int64) if n < 64 else _words(masks, n)

    def unpack(mask):  # an int64 mask or a row of words, little-endian
        return int.from_bytes(np.asarray(mask).tobytes(), "little")

    (ae, ax, az), (be, bx, bz) = (
        ([power_of_i(p) for p in side], pack([p.x for p in side]),
         pack([p.z for p in side])) for side in zip(*pairs))
    e, x, z = times(ae, ax, az, be, bx, bz)
    phase = hermitian_phase(e, x, z)
    odd = odd_overlap(ax, az, bx, bz)
    for k, (p, q) in enumerate(pairs):
        want, canon = multiply_phase(p, q)
        assert (unpack(x[k]), unpack(z[k])) == (canon.x, canon.z)
        assert phase[k] == want
        assert odd[k] == (not commutes(p, q))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 70]), st.booleans(), st.data())
def test_product_is_the_left_fold_of_multiply(n, repair, data):
    # product folds the phase on ints and builds one string at the end: it
    # must equal the left fold of multiply, signs and Y factors included,
    # from a list or an iterator, and raise its ValueError wherever the fold
    # raises: on a factor that anticommutes with the product of those before
    # it.  With ``repair`` each such factor gets one bit flipped so that it
    # commutes.
    string = st.builds(lambda x, z, sign: PauliString(n, x, z, sign),
                       st.integers(0, (1 << n) - 1),
                       st.integers(0, (1 << n) - 1), st.sampled_from((1, -1)))
    strings = data.draw(st.lists(string, min_size=1, max_size=6))
    if repair:
        acc = strings[0]
        for i, q in enumerate(strings[1:], 1):
            if not commutes(acc, q):
                bit = acc.x & -acc.x
                strings[i] = q = (PauliString(n, q.x, q.z ^ bit, q.sign) if bit
                                  else PauliString(n, q.x ^ (acc.z & -acc.z),
                                                   q.z, q.sign))
            acc = multiply(acc, q)
    try:
        want = functools.reduce(multiply, strings)
    except ValueError:
        with pytest.raises(ValueError, match="anticommuting"):
            product(strings)
    else:
        assert product(strings) == want
        assert product(iter(strings)) == want


@pytest.mark.parametrize("n", [5, 70])
def test_signed_span_matches_ordered_products(n):
    # Row s of the tables is the product of the strings the bits of s
    # select, in order, as i^e X^x Z^z: against multiply_phase on every
    # subset, with the strings as ints (n = 5) and as rows of words.
    rng = random.Random(n)
    strings = [PauliString(n, rng.getrandbits(n), rng.getrandbits(n),
                           rng.choice((1, -1))) for _ in range(6)]
    e = [power_of_i(p) for p in strings]
    if n < 63:
        tx, tz, te = signed_span(np.array([p.x for p in strings]),
                                 np.array([p.z for p in strings]), e)
        tx, tz = tx.tolist(), tz.tolist()
    else:
        wx, wz, te = signed_span(_words([p.x for p in strings], n),
                                 _words([p.z for p in strings], n), e)
        tx, tz = ([int.from_bytes(row.tobytes(), "little") for row in w]
                  for w in (wx, wz))
    for s in range(1 << len(strings)):
        phase, acc = 1, PauliString.identity(n)
        for b, p in enumerate(strings):
            if s >> b & 1:
                step, acc = multiply_phase(acc, p)
                phase *= step
        assert (tx[s], tz[s]) == (acc.x, acc.z)
        # acc is the canonical string i^|x & z| X^x Z^z.
        assert phase * 1j ** (acc.x & acc.z).bit_count() == pytest.approx(
            1j ** int(te[s]))
