"""Acceptance suite: thirteen exact criteria, one verdict line each.

Every check is exact integer arithmetic; the few timed criteria assert
a wall-clock budget on top.  Verdict lines are written straight to the
real stdout so they survive pytest capture:

    criterion 01 [snf-soundness]: PASS

A failing criterion still raises, so pytest reports it as a failure in
the usual way; the verdict line just flips to FAIL.
"""

import random
import sys
import time
from contextlib import contextmanager
from math import gcd
from pathlib import Path

from equik.abgroups import FgAbelianGroup, TRIVIAL_GROUP
from equik.fusion import (
    circle_truncation,
    cyclic_ring,
    from_fusion_file,
    ideal_power,
    lambda_expansion,
    lattice_quotient,
    multiply,
    regular_class_check,
    ring_from_tag,
    ring_product,
)
from equik.intmat import IntMatrix, snf
from equik.joins import (
    build_join_complex,
    join_k_theory_formula,
    mayer_vietoris_delta,
    oracle_consistency,
    reduced_homology,
)
from equik.kmodules import (
    circle_model,
    element_stable_nonvanishing,
    factor_ideal_power,
    ideal_image,
    max_nonvanishing_power,
    tensor_model,
    trunc_model,
    truncated_ring_module,
)
from equik.reports import (
    DimBound,
    circle_ah_dimension,
    commutative_dimension,
    report_from_json_dict,
    report_to_json_dict,
    rokhlin_factor_bound,
    tensor_rule,
    validate,
    z2_af_bounds,
    z6_collapse_report,
)
from dense_algebra import det, mul, one_vec

DATA = Path(__file__).parent / "data"


def _announce(number: int, name: str, verdict: str) -> None:
    line = "criterion %02d [%s]: %s" % (number, name, verdict)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        _announce(number, name, "FAIL")
        raise
    _announce(number, name, "PASS")


def _random_matrix(rng: random.Random, max_dim: int) -> IntMatrix:
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    entries = [
        [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
    ]
    return IntMatrix.from_rows(entries)


def _minor_gcds(m: IntMatrix) -> list:
    """Determinantal divisors d_k, brute force over all k x k minors."""
    from itertools import combinations

    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows(
                    [[m.entry(i, j) for j in cs] for i in rs]
                )
                g = gcd(g, det(sub))
        out.append(g)
    return out


def _check_snf_once(a: IntMatrix, with_minors: bool) -> None:
    dec = snf(a)
    assert mul(mul(dec.U, a), dec.V).to_rows() == dec.D.to_rows()
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.V)) == 1
    factors = dec.invariant_factors()
    for f in factors:
        assert f > 0
    for prev, nxt in zip(factors, factors[1:]):
        assert nxt % prev == 0
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D.entry(i, j) == 0
    if with_minors:
        divisors = _minor_gcds(a)
        d_prev = 1
        for idx, f in enumerate(factors):
            assert divisors[idx] == d_prev * f
            d_prev = divisors[idx]
        for idx in range(len(factors), len(divisors)):
            assert divisors[idx] == 0


def test_criterion_01_snf_soundness():
    with criterion(1, "snf-soundness"):
        rng = random.Random(20240811)
        start = time.monotonic()
        for _ in range(100):
            _check_snf_once(_random_matrix(rng, 4), with_minors=True)
        for _ in range(100):
            _check_snf_once(_random_matrix(rng, 8), with_minors=False)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, "SNF batch took %.2fs" % elapsed


def test_criterion_02_join_k_theory_oracle():
    with criterion(2, "join-k-theory-oracle"):
        start = time.monotonic()
        grid = [(n, k) for n in range(1, 5) for k in range(1, 5)]
        grid += [(2, k) for k in range(5, 7)]
        for n, k in grid:
            chk = oracle_consistency(n, k)
            assert chk.consistent, "mismatch at (%d, %d)" % (n, k)
            assert chk.torsion_free
            k0, k1 = join_k_theory_formula(n, k)
            assert k0 + k1 == (n - 1) ** k + 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, "oracle grid took %.2fs" % elapsed


def test_criterion_03_sphere_identification():
    with criterion(3, "sphere-identification"):
        for k in range(1, 7):
            betti = reduced_homology(build_join_complex(2, k))
            for d, g in enumerate(betti.groups):
                expected = (
                    FgAbelianGroup(1, ()) if d == k - 1 else TRIVIAL_GROUP
                )
                assert g == expected, "degree %d of k=%d" % (d, k)


def test_criterion_04_mayer_vietoris_connecting_map():
    with criterion(4, "mayer-vietoris"):
        for l in range(1, 6):
            for n in range(1, 6):
                rep = mayer_vietoris_delta(l, n)
                assert rep.kernel_rank == 1
                assert rep.cokernel.torsion == ()
                assert rep.cokernel.free_rank == l * n - l - n + 1


def test_criterion_05_iadic_filtration():
    with criterion(5, "i-adic-filtration"):
        start = time.monotonic()
        for p in (3, 5, 7):
            r = cyclic_ring(p)
            for m in range(1, 5):
                q = lattice_quotient(
                    r, ideal_power(r, m), ideal_power(r, m + 1)
                )
                assert q == FgAbelianGroup(0, (p,))
        r2 = cyclic_ring(2)
        for m in range(1, 7):
            assert ideal_power(r2, m).content() == 2 ** (m - 1)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, "filtration batch took %.2fs" % elapsed


def test_criterion_06_lambda_expansion():
    with criterion(6, "lambda-expansion"):
        for p in (3, 5, 7):
            coeffs = lambda_expansion(p)
            assert coeffs[0] == -p
            r = cyclic_ring(p)
            lam = tuple(
                (1 if i == 0 else 0) - (1 if i == 1 else 0)
                for i in range(p)
            )
            powers = [one_vec(r)]
            for _ in range(p):
                powers.append(multiply(r, powers[-1], lam).coefficients)
            acc = (0,) * p
            for j, c in enumerate(coeffs, start=1):
                acc = tuple(a + c * b for a, b in zip(acc, powers[j]))
            assert acc == powers[p]


def test_criterion_07_regular_annihilation():
    with criterion(7, "regular-annihilation"):
        rings = [cyclic_ring(n) for n in range(2, 8)]
        rings.append(ring_product(cyclic_ring(2), cyclic_ring(3)))
        rings.append(from_fusion_file(DATA / "s3_fusion.json"))
        for r in rings:
            _, annihilated = regular_class_check(r)
            assert annihilated, "regular class survives on %s" % (r.labels,)


def test_criterion_08_z2_bounds():
    with criterion(8, "z2-bounds"):
        for m in range(1, 6):
            report = z2_af_bounds(m)
            assert report.lower == m
            assert report.upper == 2 * m + 2
            cert = report.bound.lower_certificate
            assert cert.nonzero_group == FgAbelianGroup(0, (2,))
            assert validate(report)


def test_criterion_09_circle_exactness():
    with criterion(9, "circle-exactness"):
        for d in range(0, 9):
            module = circle_model(d + 1).instantiate()
            assert max_nonvanishing_power(module) == d
            report = circle_ah_dimension(d)
            assert report.lower == d
            assert report.upper == d
            cert = report.bound.lower_certificate
            if d > 0:
                assert cert.stability is not None
                assert cert.stability.multiplier == 2
                assert cert.stability.element[0] == 1
            assert validate(report)


def test_criterion_10_kunneth_product_certificate():
    with criterion(10, "kunneth-product"):
        z2 = cyclic_ring(2)
        for tag in ("z3", "z5"):
            right = ring_from_tag(tag)
            order = right.rank
            for m in range(1, 5):
                desc = tensor_model(
                    trunc_model("z2", m + 1), trunc_model(tag, 1)
                )
                module = desc.instantiate()
                lat = factor_ideal_power(module.ring, z2, m)
                image = ideal_image(lat, module)
                assert image == FgAbelianGroup(0, (2,)), (
                    "image %s at (%s, %d)" % (image.render(), tag, m)
                )
                unit = tuple(
                    1 if i == 0 else 0 for i in range(module.generators)
                )
                full = ideal_power(module.ring, m)
                assert element_stable_nonvanishing(module, unit, full, order)


def test_criterion_11_annihilation_ceiling():
    with criterion(11, "annihilation-ceiling"):
        for d in range(1, 7):
            rings = [cyclic_ring(n) for n in range(2, 8)]
            rings.append(ring_product(cyclic_ring(2), cyclic_ring(3)))
            rings.append(circle_truncation(d))
            for r in rings:
                module = truncated_ring_module(r, d)
                image = ideal_image(ideal_power(r, d), module)
                assert image == TRIVIAL_GROUP, (
                    "I^%d leaves %s on rank-%d ring"
                    % (d, image.render(), r.rank)
                )


def test_criterion_12_calculus_and_validation():
    with criterion(12, "calculus-and-validation"):
        zero = rokhlin_factor_bound()
        sample = DimBound(0, 5)
        # the zero bound is a unit for sum and absorb, and a zero for min
        assert tensor_rule("sum", sample, zero).upper == 5
        assert tensor_rule("sum", zero, sample).upper == 5
        assert tensor_rule("absorb", sample, zero).upper == 5
        assert tensor_rule("min", sample, zero).upper == 0
        reports = []
        for d in range(0, 4):
            col = z6_collapse_report(d)
            for factor in col.factors:
                assert factor.lower > d
            assert col.product.lower == 0
            assert col.product.upper == 0
            reports.append(col)
        reports.append(z2_af_bounds(3))
        reports.append(circle_ah_dimension(2))
        reports.append(commutative_dimension("z3", 4))
        for rep in reports:
            assert validate(rep)
        forged = report_to_json_dict(z2_af_bounds(3))
        forged["lower"] = "9"
        for cert in forged["certificates"]:
            if cert["role"] == "lower":
                cert["power"] = "9"
        assert not validate(report_from_json_dict(forged))


def test_criterion_13_commutative_case():
    with criterion(13, "commutative-case"):
        for tag in ("z2", "z3", "s1"):
            for k in range(1, 7):
                result = commutative_dimension(tag, k)
                assert result.dim == k - 1
                assert result.ind == k
                assert result.dim == result.ind - 1
                assert validate(result)
