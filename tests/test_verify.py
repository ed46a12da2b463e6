import numpy as np
import pytest

from volterra_fbm import bounds, grid
from volterra_fbm.coeffs import builtin_coefficients
from volterra_fbm.grid import abs_increment_row_integrals, abs_increment_row_integrals_many
from volterra_fbm.report import EstimateReport, make_report, ratio_of
from volterra_fbm.verify import (
    SuiteConfig,
    check_aux_inequalities,
    check_lebesgue_estimates,
    check_rs_estimates,
    check_sigma_lemmas,
    _PREFIX_GROUP,
    _prefix_groups,
    _w_of,
    run_suite,
)


def test_ratio_conventions():
    r = ratio_of(np.array([0.0, 1.0, 0.5]), np.array([0.0, 2.0, 0.0]))
    assert r[0] == 0.0
    assert r[1] == 0.5
    assert np.isinf(r[2])


def test_nan_sides_fail():
    # a NaN lhs against a zero or NaN bound once scored 0 and passed
    rep = make_report("x", [np.nan, 0.5], [0.0, 1.0], 0.0)
    assert not rep.passed and rep.max_ratio == np.inf
    assert not make_report("x", [np.nan], [np.nan], 0.0).passed
    assert np.all(np.isinf(ratio_of([np.nan, 1.0, np.inf], [1.0, np.nan, np.inf])))


def test_make_report_pass_fail():
    rep = make_report("x", [1.0, 2.0], [2.0, 2.0], slack=0.05)
    assert rep.passed and rep.max_ratio == 1.0
    rep2 = make_report("x", [2.2], [2.0], slack=0.05)
    assert not rep2.passed
    js = rep.to_json()
    assert '"name": "x"' in js


def test_lebesgue_checks_pass():
    reports = check_lebesgue_estimates(80, rng_seed=7)
    assert len(reports) == 4
    for r in reports:
        assert r.passed, (r.name, r.max_ratio)
        assert r.constants_used


def test_lebesgue_zero_kernel_trivial():
    # a zero integrand makes both sides vanish; covered by ratio_of(0, 0)
    assert ratio_of(np.zeros(3), np.zeros(3)).max() == 0.0


def test_rs_checks_pass():
    reports = check_rs_estimates(60, rng_seed=8)
    assert len(reports) == 5
    for r in reports:
        assert r.passed, (r.name, r.max_ratio)
    names = {r.name for r in reports}
    assert "sigma-map-contraction" in names
    by = {r.name: r for r in reports}
    cu = by["sigma-map-contraction"].constants_used
    assert "dprime_N_recomputed" in cu and "dprime_N_literal" in cu


def test_negative_control_corrupted_constant(monkeypatch):
    # a constant shrunk below what the proof chain supports must fail its check
    d_n, d4 = bounds.drift_contraction_d_N, bounds.stieltjes_d4
    monkeypatch.setattr(bounds, "drift_contraction_d_N", lambda *a, **k: 0.0625 * d_n(*a, **k))
    monkeypatch.setattr(bounds, "stieltjes_d4", lambda *a, **k: 0.001 * d4(*a, **k))
    reports = check_lebesgue_estimates(40, rng_seed=7)
    by = {r.name: r for r in reports}
    assert not by["drift-contraction"].passed
    reports2 = check_rs_estimates(30, rng_seed=8)
    by2 = {r.name: r for r in reports2}
    assert not by2["sigma-map-weighted-bound"].passed


@pytest.mark.parametrize("name", ["smooth-volterra", "bounded-growth", "constant-sigma"])
def test_lemma_checks_zero_slack(name):
    cs = builtin_coefficients(name)
    for rep in check_sigma_lemmas(cs, 100000, 5.0, rng_seed=9):
        assert rep.slack_allowed == 0.0
        assert rep.passed, (rep.name, rep.max_ratio)


def test_lemma_degenerate_tuples_vanish():
    # equal time arguments cancel the four-point time increment exactly
    cs = builtin_coefficients("smooth-volterra")
    t = np.array([0.7])
    s1 = np.array([0.2])
    s2 = np.array([0.5])
    x1 = np.array([[0.3]])
    x2 = np.array([[-0.4]])
    lhs = np.abs(
        cs.sigma(t, s1, x1) - cs.sigma(t, s1, x1) - cs.sigma(t, s2, x2) + cs.sigma(t, s2, x2)
    )
    assert float(lhs.max()) == 0.0


def test_aux_checks_pass():
    reports = check_aux_inequalities()
    assert len(reports) == 5
    for r in reports:
        assert r.passed, (r.name, r.max_ratio)
    by = {r.name: r for r in reports}
    # exp-weight bound is attained (calculus maximum)
    assert by["aux-exp-weight-sup"].max_ratio == pytest.approx(1.0, abs=1e-6)
    # Gamma-integral bound approached as lambda t grows
    assert by["aux-exp-kernel-bound"].max_ratio == pytest.approx(1.0, abs=1e-3)


def test_run_suite_empty_and_selection():
    from volterra_fbm.errors import CatalogError

    with pytest.raises(CatalogError, match="no verification family"):
        run_suite(SuiteConfig(families=()))
    out = run_suite(SuiteConfig(families=("lemmas",), samples=20000))
    assert set(out) == {"lemmas"}
    assert all(r.passed for r in out["lemmas"])


def test_run_suite_unknown_family():
    from volterra_fbm.errors import VolterraError

    with pytest.raises(VolterraError):
        run_suite(SuiteConfig(families=("nonsense",)))


def test_checks_deterministic_given_seed():
    a = check_rs_estimates(12, rng_seed=5)
    b = check_rs_estimates(12, rng_seed=5)
    for ra, rb in zip(a, b):
        assert ra.to_json() == rb.to_json()
    c = check_rs_estimates(12, rng_seed=6)
    assert any(ra.to_json() != rc.to_json() for ra, rc in zip(a, c))


def test_estimate_report_records_constants():
    reports = check_lebesgue_estimates(10, rng_seed=1)
    cu = reports[0].constants_used
    assert "C1" in cu and "C2" in cu
    assert isinstance(EstimateReport(**{**reports[0].__dict__}), EstimateReport)
    # only the rs family records the literal displays beside its constants
    assert not any(k.endswith("_literal") for k in cu)
    assert any(k.endswith("_literal") for k in check_rs_estimates(3, 2)[0].constants_used)


def _double_increment_mass(row_t, row_s, h, alpha, upto):
    """The per-node rule the stacked prefix groups replaced, kept as their
    oracle: one row-rule call per node."""
    phi = (row_t - row_s)[: upto + 1]
    if upto < 1:
        return 0.0
    inner = abs_increment_row_integrals(phi, h, alpha + 1.0)
    return float(np.trapezoid(inner, dx=h))


# at and beside every edge of the prefix groups: one group short of
# full, full, one and two prefixes into the next, and the last prefixes
_G = _PREFIX_GROUP


@pytest.mark.parametrize("n, i_ts", [(64, (2, 3, _G, _G + 1, _G + 2, 2 * _G + 1, 63, 64)),
                                     (300, (256, 257, 258, 300))])
def test_w_path_is_the_per_node_rule(n, i_ts):
    # the stacked prefixes change the einsum's row length and the outer
    # sum's order: within 1e-14 of the largest entry (3e-16 measured)
    rng = np.random.default_rng(n)
    h, alpha = 1.0 / n, 0.27
    vals = np.cumsum(rng.normal(size=(n + 1, n + 1)), axis=1) * np.sqrt(h)
    for i_t in i_ts:
        row = vals[i_t, : i_t + 1]
        want = np.empty(i_t + 1)
        want[0] = 0.0
        for j in range(1, i_t + 1):
            want[j] = _double_increment_mass(row, vals[j, : i_t + 1], h, alpha, j)
        want[i_t] = 0.0
        groups = _prefix_groups(row, vals, i_t)
        got = _w_of(abs_increment_row_integrals_many([(v, 1.0) for v in groups], h, alpha + 1.0), i_t, h)
        assert got[0] == 0.0 and got[i_t] == 0.0
        assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want)))


def test_rs_case_takes_two_row_passes(monkeypatch):
    # a guard on the work, not a timer: per case one row pass for the two
    # Stieltjes bounds and one for the norm aggregates, with at most G,
    # three rows, six masses, three nodes' prefix groups and two norm
    # stacks as entries.  One entry per prefix made 11 passes and 132.5
    # entries a case
    calls, entries = [0], [0]
    kernel = grid._blocked_row_rule

    def counted(h, theta, shapes, block_of):
        calls[0] += 1
        entries[0] += len(shapes)
        return kernel(h, theta, shapes, block_of)

    monkeypatch.setattr(grid, "_blocked_row_rule", counted)
    cases, n = 12, SuiteConfig.grid_n
    check_rs_estimates(cases, rng_seed=5)
    groups = -(-(n - 1) // _PREFIX_GROUP)
    assert calls[0] <= 2 * cases
    assert entries[0] <= (1 + 3 + 6 + 3 * groups + 2) * cases


def test_make_report_empty_sample_fails():
    rep = make_report("x", [], [], slack=0.05)
    assert not rep.passed and rep.cases == 0
    assert rep.notes == "no cases were checked"
    assert make_report("x", [], [], 0.05, notes="n=64").notes == "n=64; no cases were checked"


def test_estimate_families_at_zero_cases_fail():
    names = [r.name for r in check_lebesgue_estimates(2, 1)] + [r.name for r in check_rs_estimates(2, 1)]
    reports = check_lebesgue_estimates(0, 1) + check_rs_estimates(0, 1)
    assert [r.name for r in reports] == names
    for r in reports:
        assert not r.passed and r.cases == 0 and "no cases were checked" in r.notes
    out = run_suite(SuiteConfig(families=("lebesgue", "stieltjes"), estimate_cases=0))
    assert [r.name for fam in ("lebesgue", "stieltjes") for r in out[fam]] == names
    assert not any(r.passed for fam in out for r in out[fam])



@pytest.mark.parametrize("family, sizes", [
    ("lemmas", {"samples": 0}),
    ("hypotheses", {"samples": 0}),
])
def test_pointwise_families_at_zero_samples_fail(family, sizes):
    # the same report names as a nonempty run, each failed and saying why
    names = [r.name for r in run_suite(SuiteConfig(families=(family,), samples=3))[family]]
    reports = run_suite(SuiteConfig(families=(family,), **sizes))[family]
    assert [r.name for r in reports] == names
    for r in reports:
        assert not r.passed and r.cases == 0 and r.notes == "no cases were checked"
