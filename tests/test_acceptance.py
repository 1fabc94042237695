"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The scale runs (criteria 1 and 3) are deterministic via fixed seeds.
"""
import gc
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from minplus_apsp import (
    EpochStats,
    FeasibilityError,
    DistMatrix,
    EncodedMatrix,
    EncodeParams,
    GenSpec,
    NonFiniteEntryError,
    decode,
    density,
    encode,
    generate_scale_free,
    max_finite,
    multiply_dense,
    multiply_sparse,
    params_for,
    power_law_bound,
    precision_limits,
    to_distance_matrix,
)
from conftest import floyd_warshall, minplus_square, random_dist_matrix


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 201))
        directed = bool(rng.integers(2))
        dens = float(rng.uniform(0.01, 0.5))
        m = random_dist_matrix(rng, n, max_weight=4, density=dens, directed=directed)
        result = power_law_bound(m)
        assert result.converged
        assert np.array_equal(result.distances.data, floyd_warshall(m).data)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"\nACCEPTANCE 1 oracle equivalence: PASS (200 graphs, {elapsed:.1f}s)")


def test_criterion_2_precision_limits():
    assert abs(precision_limits(8508, 32).paper_limit - 9.8) <= 0.05
    assert abs(precision_limits(8508, 64).paper_limit - 78.4) <= 0.05
    published = {
        (1, 32): 127.9,
        (1, 64): 1024.0,
        (10, 32): 37.0,
        (10, 64): 296.0,
        (1000, 32): 12.8,
        (1000, 64): 102.7,
        (10**8, 32): 4.8,
        (10**8, 64): 38.5,
    }
    for (n, width), want in published.items():
        assert abs(precision_limits(n, width).paper_limit - want) <= 0.1, (n, width)
    print("ACCEPTANCE 2 precision limits: PASS (8508-node limits and 8 table rows)")


def test_criterion_3_epoch_count_bound():
    start = time.perf_counter()
    checked = []
    for n in (1000, 10000):
        for m_attach in (2, 3, 5):
            g = generate_scale_free(GenSpec(n=n, m_attach=m_attach, seed=7))
            w = to_distance_matrix(g)
            result = power_law_bound(w)
            assert result.converged
            diam = max_finite(result.distances)
            improving = sum(1 for st in result.epochs if st.delta > 0)
            assert improving <= math.ceil(math.log2(diam)) <= 7
            assert len(result.epochs) <= 8
            prev = max_finite(w)
            for st in result.epochs:
                assert st.max_element <= 2 * prev
                prev = st.max_element
            checked.append((n, m_attach, len(result.epochs), diam))
            del g, w, result
            gc.collect()
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"ACCEPTANCE 3 epoch-count bound: PASS ({checked}, {elapsed:.1f}s)")


def test_criterion_4_published_epoch_table_identities():
    n, unreachable = 8508, 807705
    rows = [
        # epoch, max_element, finite_before, finite_after,
        #   delta, convergence_quantity, convergence_pct
        (1, 2, 617958, 22627474, 22009516, 23435179, 32.375),
        (2, 4, 22627474, 71482515, 48855041, 72290220, 99.868),
        (3, 8, 71482515, 71578359, 95844, 72386064, 100.0),
        (4, 8, 71578359, 71578359, 0, 72386064, 100.0),
    ]
    for epoch, max_el, before, after, delta, quantity, pct in rows:
        st = EpochStats(
            epoch=epoch, max_element=max_el, finite_before=before, finite_after=after
        )
        st.finalize(unreachable_count=unreachable, n=n)
        assert st.delta == delta
        assert st.convergence_quantity == quantity
        assert round(st.convergence_pct, 3) == pct
    # final-epoch identity: finite + unreachable covers every entry
    assert rows[-1][3] + unreachable == n * n
    print("ACCEPTANCE 4 epoch-table identities: PASS (4 published rows exact)")


def test_criterion_5_kernel_cross_validation():
    rng = np.random.default_rng(99)
    cases = 0
    for n in (2, 3, 8, 16, 33, 64, 100, 128):
        for directed in (False, True):
            m = random_dist_matrix(rng, n, max_weight=3, density=0.15, directed=directed)
            p = params_for(m)
            e = encode(m, p)
            want = minplus_square(m).data
            s = sp.csr_array(e.data)
            results = {
                "dense": multiply_dense(e, e),
                "sparse": EncodedMatrix(multiply_sparse(s, s).toarray()),
            }
            for name, got in results.items():
                assert np.array_equal(decode(got, p).data, want), (n, name)
            cases += 1
    print(f"ACCEPTANCE 5 kernel cross-validation: PASS ({cases} cases, 2 kernels each)")


def test_criterion_6_sparseness_routing():
    from minplus_apsp import DensityReport, choose_kernel

    assert choose_kernel(DensityReport(999, 10000)) == "sparse"
    assert choose_kernel(DensityReport(1000, 10000)) == "dense"

    # 0.9%-dense scale-free graph: the solve must start sparse and go dense
    g = generate_scale_free(GenSpec(n=1600, m_attach=7, seed=11))
    w = to_distance_matrix(g)
    d = density(w)
    assert 0.008 < d.density < 0.011
    result = power_law_bound(w)
    assert result.converged
    trace = [st.kernel for st in result.epochs if st.kernel]
    assert trace[0] == "sparse"
    assert "dense" in trace
    first_dense = trace.index("dense")
    assert all(kind == "dense" for kind in trace[first_dense:])
    print(f"ACCEPTANCE 6 sparseness routing: PASS (density {d.density:.4f}, trace {trace})")


def test_criterion_7_performance_ordering():
    from minplus_apsp import choose_kernel, distance_product, fixed_squaring

    # the encoded product must beat the direct min-plus product it replaces;
    # about 28 % of m's entries are finite, so the density rule runs it dense
    rng = np.random.default_rng(7)
    m = random_dist_matrix(rng, 512, max_weight=4, density=0.15)
    assert choose_kernel(density(m)) == "dense"

    start = time.perf_counter()
    direct = minplus_square(m)
    minplus_square(m)
    direct_t = (time.perf_counter() - start) / 2

    start = time.perf_counter()
    encoded = distance_product(m)
    distance_product(m)
    encoded_t = (time.perf_counter() - start) / 2
    assert np.array_equal(encoded.data, direct.data)
    assert encoded_t < direct_t

    epoch_checks = []
    for n, m_attach in ((512, 2), (700, 3)):
        g = generate_scale_free(GenSpec(n=n, m_attach=m_attach, seed=5))
        w = to_distance_matrix(g)
        result = power_law_bound(w)
        _, baseline_iters = fixed_squaring(w)
        assert result.converged
        assert len(result.epochs) <= baseline_iters
        epoch_checks.append((n, len(result.epochs), baseline_iters))
    print(
        f"ACCEPTANCE 7 performance ordering: PASS (encoded {encoded_t*1e3:.0f}ms < "
        f"min-plus {direct_t*1e3:.0f}ms at n=512; epochs vs baseline {epoch_checks})"
    )


def test_criterion_8_overflow_safety():
    # weight 600 at n=2 needs ~1903 exponent bits, beyond the 64-bit budget
    m = DistMatrix.from_rows([[0, 600], [600, 0]])

    with pytest.raises(FeasibilityError):
        power_law_bound(m)

    # a product past the float64 range (about 1268 bits here) reaches decode
    # as inf, and decode raises instead of returning wrong distances
    e = EncodedMatrix(np.array([[3.0**400, 1.0], [1.0, 3.0**400]]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteEntryError):
        decode(multiply_dense(e, e), EncodeParams(base=3, x_tilde=400))
    print(
        "ACCEPTANCE 8 overflow safety: PASS (guarded solve refuses; an "
        "overflowed product makes decode raise instead of returning wrong distances)"
    )
