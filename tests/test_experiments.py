"""Perturbation families, sweeps, artifact serialization."""

from __future__ import annotations

import math

import pytest

from stabbench.constructors import toric_code
from stabbench.experiments import (
    build_code,
    code_from_dict,
    code_to_dict,
    perturbation_terms,
    plaquette_field_terms,
    spectrum_grid,
    splitting_versus_size,
    two_body_mix_terms,
    uniform_field_terms,
)
from stabbench.swt import spectral_report


def test_uniform_field_terms():
    terms = uniform_field_terms(4, "X")
    assert len(terms) == 4
    assert all(c == 1.0 and p.z == 0 and p.weight() == 1 for c, p in terms)


def test_two_body_mix_properties():
    terms = two_body_mix_terms(5, seed=3)
    assert len(terms) == 2 * math.comb(5, 2)
    assert terms == two_body_mix_terms(5, seed=3)  # deterministic
    assert all(abs(c) <= 1 / 5 for c, _ in terms)


def test_plaquette_field_terms():
    terms = plaquette_field_terms(3)
    assert len(terms) == 9
    assert all(c == 1.0 and p.x == 0 and p.weight() == 4 for c, p in terms)


def test_plaquette_sum_terms():
    terms = perturbation_terms("plaquette-sum", toric_code(3))
    assert len(terms) == 9
    assert all(c == pytest.approx(1 / 18) and p.x == 0 and p.weight() == 4
               for c, p in terms)
    assert [p for _, p in terms] == [p for _, p in plaquette_field_terms(3)]


def test_perturbation_family_dispatch():
    code = toric_code(2)
    for family in ("x-field", "z-field", "two-body", "plaquette-sum"):
        terms = perturbation_terms(family, code, seed=1)
        assert terms
    with pytest.raises(ValueError):
        perturbation_terms("bogus", code)


def test_spectrum_grid_canonical_order():
    code = toric_code(2)
    terms = uniform_field_terms(8, "X")
    grid = spectrum_grid(code, terms, [0.1, 0.0])
    assert [r.epsilon for r in grid] == [0.0, 0.1]  # canonical order
    for r, eps in zip(grid, (0.0, 0.1)):
        one = spectral_report(code, terms, eps, k=2)
        assert r.splitting == pytest.approx(one.splitting, abs=1e-12)


def test_splitting_slope_lambda2():
    fit = splitting_versus_size((4, 6), 0.1, lam=2.0)
    assert fit["slope"] == pytest.approx(math.log(0.1), rel=1e-6)


def test_code_round_trip_serialization():
    code, meta = build_code("toric", L=2, n=None, lam=None)
    data = code_to_dict(code, meta)
    back = code_from_dict(data)
    assert back.n == code.n and back.kind == code.kind
    assert [c.label() for c in back.checks] == [c.label() for c in code.checks]
    assert back.lambdas == code.lambdas


def test_build_code_unknown_family():
    with pytest.raises(ValueError, match="unknown code family"):
        build_code("nope")
