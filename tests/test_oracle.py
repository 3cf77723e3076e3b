import numpy as np
import pytest

from ginv.decomp import core_ep_decompose, index
from ginv.errors import InfeasibleSpecError
from ginv.geninv import WGRoute, wg_inverse
from ginv.matcore import DEFAULT_TOL, residual
from ginv.oracle import (
    SUITE_NAMES,
    GenSpec,
    brute_force_wg,
    gen_matrix,
    random_spec,
    run_suite,
)

EQ = DEFAULT_TOL.eq_rtol


class TestGenSpec:
    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            GenSpec(n=0, target_index=1, core_rank=0, seed=1)
        with pytest.raises(ValueError):
            GenSpec(n=4, target_index=0, core_rank=2, seed=1)
        with pytest.raises(ValueError):
            GenSpec(n=4, target_index=1, core_rank=5, seed=1)
        with pytest.raises(ValueError):
            GenSpec(n=4, target_index=4, core_rank=2, seed=1)  # > n - r + 1

    def test_infeasible_specs_rejected_at_generation(self):
        # admitted by the documented bound but not realizable: a nilpotent
        # block of size 1 cannot have nilpotency index 2
        spec = GenSpec(n=4, target_index=2, core_rank=3, seed=1)
        with pytest.raises(InfeasibleSpecError):
            gen_matrix(spec)
        with pytest.raises(InfeasibleSpecError):
            gen_matrix(GenSpec(n=3, target_index=2, core_rank=3, seed=1))


class TestGenMatrix:
    def test_deterministic(self):
        spec = GenSpec(n=6, target_index=3, core_rank=2, seed=12345, sn_zero=True)
        a, b = gen_matrix(spec), gen_matrix(spec)
        assert (a == b).all()

    def test_index_matches_target(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            spec = random_spec(rng)
            a = gen_matrix(spec)
            assert index(a).index == spec.target_index, spec

    def test_invertible_case(self):
        a = gen_matrix(GenSpec(n=4, target_index=1, core_rank=4, seed=9))
        assert np.linalg.matrix_rank(a) == 4

    def test_sn_zero_exact(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            spec = random_spec(rng, index_choices=(2, 3), sn_zero=True, allow_extremes=False)
            a = gen_matrix(spec)
            parts = core_ep_decompose(a)
            # the product is zero to all digits in the generator's own basis;
            # the recovered basis sees it at rounding level only
            assert np.linalg.norm(parts.S @ parts.N) <= 1e-12

    def test_result_read_only(self):
        a = gen_matrix(GenSpec(n=3, target_index=1, core_rank=2, seed=5))
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


class TestBruteForceWG:
    def test_demo_4x4(self):
        from ginv.fixtures import DEMO_4X4, DEMO_4X4_INVERSES

        x = brute_force_wg(DEMO_4X4)
        assert np.max(np.abs(x - DEMO_4X4_INVERSES["wg"])) < 1e-9

    def test_nilpotent(self):
        rng = np.random.default_rng(62)
        q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        nil = np.zeros((4, 4), dtype=complex)
        nil[0, 1] = 1.0
        a = q @ nil @ q.conj().T
        assert np.linalg.norm(brute_force_wg(a)) < 1e-12

    def test_agrees_with_block_form(self):
        rng = np.random.default_rng(63)
        specs = [random_spec(rng, n_max=5, index_choices=(1, 2, 3)) for _ in range(50)]
        # core rank 1 with an index-3 chain: rounding noise in A^2 sits just
        # above numpy's default rank cutoff unless the power's floor is used
        specs.append(GenSpec(n=4, target_index=3, core_rank=1, seed=250))
        # every feasible shape the size guard admits, core rank 0 and 1 included
        specs += [
            GenSpec(n=n, target_index=k, core_rank=r, seed=seed)
            for n in range(1, 6)
            for r in range(n + 1)
            for k in ([1] if r == n else range(1, n - r + 1))
            for seed in range(3)
        ]
        for spec in specs:
            a = gen_matrix(spec)
            x = brute_force_wg(a)
            assert residual(x, wg_inverse(a, route=WGRoute.BLOCK_FORM).value) <= 10 * EQ

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_wg(np.eye(6, dtype=complex))


def test_package_reads_the_oracle_names_lazily():
    import ginv
    import ginv.oracle

    assert ginv.brute_force_wg is ginv.oracle.brute_force_wg
    assert "run_suite" in dir(ginv) and "brute_force_wg" in dir(ginv)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ginv.no_such_name


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope", count=1, seed=0)

    def test_empty_suite(self):
        rep = run_suite("empty", count=0, seed=0)
        assert rep.cases_run == 0
        assert rep.cases_passed == 0
        assert rep.all_passed

    def test_deterministic_reports(self):
        r1 = run_suite("wg-uniqueness", count=5, seed=7)
        r2 = run_suite("wg-uniqueness", count=5, seed=7)
        assert r1 == r2

    def test_wg_uniqueness_passes(self):
        rep = run_suite("wg-uniqueness", count=50, seed=1)
        assert rep.cases_run == 50
        assert rep.cases_passed == 50, rep.failures[:3]

    def test_reference_examples_all_pass(self):
        rep = run_suite("reference-examples", count=0, seed=0)
        assert rep.cases_run == 7
        assert rep.all_passed, rep.failures

    @pytest.mark.parametrize("name", ["decomp-invariants", "geninv-invariants", "orders-invariants"])
    def test_property_suites_pass(self, name):
        rep = run_suite(name, count=15, seed=2)
        assert rep.cases_run == 15
        assert rep.all_passed, rep.failures[:5]

    def test_all_names_registered(self):
        assert set(SUITE_NAMES) == {
            "wg-uniqueness",
            "reference-examples",
            "decomp-invariants",
            "geninv-invariants",
            "orders-invariants",
            "empty",
        }
