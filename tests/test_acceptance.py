"""Ten end-to-end acceptance checks for the package.

Each check prints exactly one ``criterion N: PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -s``) and enforces its own wall-clock
budget.  Expected values come from the independent oracles in
``tests/oracles.py`` or from closed forms, never from the code under test.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from saferegions import (
    GaussianSpec,
    Hyperparameters,
    KernelSpec,
    ScalingPlan,
    binomial_cdf,
    calibrate,
    calibrate_trained_family,
    discarding_parameter,
    kappa,
    min_calibration_size,
    sample_gaussian,
    select_best,
    train_families,
    train_sc_lr,
    train_sc_svdd,
    train_sc_svm,
)
from saferegions.classifiers import box_bounds
from saferegions.cli import main as cli_main
from saferegions.kernels import gram
from saferegions.logistic import lr_gradient, lr_loss

from .oracles import central_difference_gradient, exact_binomial_cdf, qp_oracle

_GAUSS = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                      cov_safe=((1.0, 0.0), (0.0, 1.0)),
                      cov_unsafe=((1.0, 0.0), (0.0, 1.0)))


@contextmanager
def _criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS in {elapsed:.1f}s")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_01_kappa_closed_form():
    with _criterion(1, "kappa closed form", 5.0):
        assert abs(kappa(0.5) - (4.0 + 2.0 * math.sqrt(3.0))) <= 1e-9


def test_criterion_02_plan_grid_certifies():
    with _criterion(2, "closed-form sizes certify", 1.0):
        for eps in (0.01, 0.05, 0.1, 0.5):
            for delta in (1e-2, 1e-6):
                n_c = min_calibration_size(eps, delta, 0.5)
                r = discarding_parameter(0.5, eps, n_c)
                assert r == math.ceil(eps * n_c / 2.0) or \
                    abs(r - eps * n_c / 2.0) < 1e-9
                plan = ScalingPlan(eps=eps, delta=delta, r=r, n_c=n_c)
                assert plan.certified, (eps, delta, n_c)


def test_criterion_03_binomial_cdf_exact():
    with _criterion(3, "binomial tail vs exact rationals", 30.0):
        for eps in (0.1, 0.3, 0.5, 0.9):
            for n in range(1, 31):
                for k in range(0, n + 1):
                    got = binomial_cdf(k, n, eps)
                    want = float(exact_binomial_cdf(k, n, eps))
                    assert abs(got - want) <= 1e-12 * max(want, 1e-300), (k, n, eps)


def test_criterion_04_duals_match_projected_gradient():
    with _criterion(4, "dual solver vs projected-gradient oracle", 30.0):
        rng = np.random.default_rng(404)
        for trial in range(20):
            n = int(rng.integers(4, 13))
            x = rng.normal(size=(n, 2))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            # keep both classes populated so every dual is feasible
            y[:2] = 1
            y[2:4] = -1
            hp = Hyperparameters(eta=float(rng.uniform(1.0, 3.0)),
                                 tau=float(rng.uniform(0.3, 0.7)),
                                 kernel=KernelSpec(kind="gaussian", gamma=0.7))

            class _D:
                pass

            data = _D()
            data.x, data.y, data.n_samples = x, y, n
            K = gram(hp.kernel, x)
            C = box_bounds(hp, y)

            svm = train_sc_svm(data, hp)
            assert svm.diagnostics.residual <= 1e-6
            _, obj = qp_oracle(K, -y.astype(float), C, np.ones(n), 1.0, 0.0)
            assert abs(svm.diagnostics.objective - obj) <= 1e-6, trial

            svdd = train_sc_svdd(data, hp)
            assert svdd.diagnostics.residual <= 1e-6
            _, obj = qp_oracle(K, y.astype(float), C, y * np.diag(K), 4.0, 0.5)
            assert abs(svdd.diagnostics.objective - obj) <= 1e-6, trial


def test_criterion_05_lr_gradient_vs_central_differences():
    with _criterion(5, "logistic gradient vs central differences", 30.0):
        rng = np.random.default_rng(505)
        x = rng.normal(size=(12, 2))
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        y[:2], y[2:4] = 1.0, -1.0
        K = gram(KernelSpec(kind="gaussian", gamma=0.6), x)
        for point in range(10):
            eta = float(rng.uniform(0.3, 2.0))
            tau = float(rng.uniform(0.2, 0.8))
            c = (1.0 - 2.0 * tau) * y + 1.0
            beta = rng.normal(size=12) * 0.5
            b = float(rng.normal())
            grad_beta, grad_b = lr_gradient(K, y, c, eta, beta, b)
            analytic = np.concatenate([grad_beta, [grad_b]])

            def packed(theta):
                return lr_loss(K, y, c, eta, theta[:-1], float(theta[-1]))

            fd = central_difference_gradient(packed, np.concatenate([beta, [b]]))
            denom = max(float(np.abs(fd).max()), 1e-8)
            assert float(np.abs(analytic - fd).max()) / denom <= 1e-5, point


def test_criterion_06_region_level_laws():
    trainers = {"svm": train_sc_svm, "svdd": train_sc_svdd, "lr": train_sc_lr}
    kernels = [KernelSpec(kind="linear"), KernelSpec(kind="gaussian"),
               KernelSpec(kind="polynomial", degree=3, coef0=1.0)]
    with _criterion(6, "level monotonicity, roots, nesting", 60.0):
        train = sample_gaussian(_GAUSS, 100, seed=66)
        points = sample_gaussian(_GAUSS, 220, seed=67).x
        for name, trainer in trainers.items():
            for kernel in kernels:
                hp = Hyperparameters(eta=1.0, tau=0.5, kernel=kernel)
                model = trainer(train, hp)
                roots = model.boundary_radius(points)
                levels = np.linspace(float(roots.min()) - 1.0,
                                     float(roots.max()) + 1.0, 7)

                previous = None
                masks = []
                for rho in levels:
                    f = model.decision_value(points, float(rho))
                    if previous is not None:
                        assert np.all(f >= previous), (name, kernel.kind)
                    previous = f
                    inside = model.predict(points, float(rho)) == 1
                    masks.append(inside)
                    # region membership is exactly a threshold on the root level
                    assert np.array_equal(~inside, rho >= roots), (name, kernel.kind)
                for tighter, looser in zip(masks[1:], masks[:-1]):
                    assert not np.any(tighter & ~looser), (name, kernel.kind)

                # every point sits exactly on the boundary at its own root level
                for i in range(0, 220, 5):
                    value = model.decision_value(points[i:i + 1], float(roots[i]))[0]
                    assert abs(value) <= 1e-9, (name, kernel.kind, i)


def test_criterion_07_gaussian_risk_validation():
    with _criterion(7, "calibrated risk holds across draws", 600.0):
        train = sample_gaussian(_GAUSS, 3000, seed=71)
        test = sample_gaussian(_GAUSS, 100_000, seed=72)
        hp = Hyperparameters(eta=1.0, tau=0.5, kernel=KernelSpec(kind="linear"))
        model = train_sc_svm(train, hp)
        radii = model.boundary_radius(test.x)
        unsafe = test.y == -1

        delta, n_c, draws = 1e-6, 2064, 50
        means = []
        for eps_index, eps in enumerate((0.01, 0.05, 0.1)):
            plan = ScalingPlan(eps=eps, delta=delta, n_c=n_c,
                               r=discarding_parameter(0.5, eps, n_c))
            certified = plan.certified
            freqs = []
            for draw in range(draws):
                calib = sample_gaussian(_GAUSS, n_c,
                                        seed=int(73_000 + 100 * eps_index + draw))
                cert = calibrate(model, calib, plan,
                                 force_uncertified=not certified)
                freqs.append(float(np.mean(unsafe & (radii > cert.rho_eps))))
            means.append(float(np.mean(freqs)))
            if eps == 0.05:
                assert certified
                held = sum(1 for f in freqs if f <= 0.06)
                assert held >= 49, f"joint frequency held in only {held}/50 draws"
        assert means[0] <= means[1] <= means[2], means


def test_criterion_08_family_risk_and_selection():
    with _criterion(8, "27-member family risk and selection", 900.0):
        spec = GaussianSpec(mu_safe=(-1.0, -1.0), mu_unsafe=(1.0, 1.0),
                            cov_safe=((1.0, 0.0), (0.0, 1.0)),
                            cov_unsafe=((1.0, 0.0), (0.0, 1.0)),
                            outlier_prob=0.1)
        train = sample_gaussian(spec, 3000, seed=81)
        test = sample_gaussian(spec, 100_000, seed=82)
        unsafe = test.y == -1

        family = [Hyperparameters(eta=eta, tau=tau, kernel=KernelSpec(kind="gaussian"))
                  for eta in (1e-2, 1e-1, 1.0)
                  for tau in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
        assert len(family) == 27
        eps, delta = 0.05, 1e-6
        n_c = min_calibration_size(eps, delta, 0.5)
        plan = ScalingPlan(eps=eps, delta=delta, n_c=n_c,
                           r=discarding_parameter(0.5, eps, n_c))
        calib = sample_gaussian(spec, n_c, seed=83)

        members = train_families(train, family, ["svdd"])["svdd"]
        assert not any(m.failed for m in members)
        result = calibrate_trained_family(members, calib, plan, "svdd")

        for member in result.members:
            inside = member.model.margin(test.x) + member.certificate.rho_eps < 0.0
            freq = float(np.mean(unsafe & inside))
            assert freq <= 0.065, (member.index, freq)

        best_index, best_score = -1, -np.inf
        for member in result.members:
            if member.score > best_score:
                best_index, best_score = member.index, member.score
        assert select_best(result) == result.selected_index == best_index


def test_criterion_09_platoon_table(tmp_path):
    from saferegions import ExperimentConfig, REPORT_COLUMNS, run_experiment

    with _criterion(9, "platoon risk table", 1800.0):
        raw = {
            "seed": 909,
            "output_dir": str(tmp_path / "platoon_out"),
            "data": {"generator": "platoon", "n_train": 1500, "n_test": 5092},
            "classifier": {"variants": ["svm", "svdd", "lr"],
                           "etas": [1e-2, 1e-1, 1.0],
                           "taus": [0.1, 0.5, 0.9],
                           "kernels": [{"kind": "gaussian"}]},
            "risk": {"eps": [0.01, 0.05, 0.1], "delta": 1.0e-6, "beta": 0.5},
        }
        config = ExperimentConfig.from_mapping(raw)
        sizes = [min_calibration_size(e, 1e-6, 0.5) for e in (0.01, 0.05, 0.1)]
        assert 1500 + sum(sizes) + 5092 == 20_000
        result = run_experiment(config)

        assert len(result.report_rows) == 3 * 9 * 3
        with (result.output_dir / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 81
        assert list(rows[0].keys()) == REPORT_COLUMNS

        joint = REPORT_COLUMNS.index("joint_freq")
        sel = REPORT_COLUMNS.index("selected")
        eps_col = REPORT_COLUMNS.index("eps")
        var_col = REPORT_COLUMNS.index("variant")
        n_test = 5092
        for row in result.report_rows:
            if not row[sel]:
                continue
            eps = row[eps_col]
            bound = eps + 3.0 * math.sqrt(eps * (1.0 - eps) / n_test)
            assert row[joint] <= bound, (row[var_col], eps, row[joint], bound)


def test_criterion_10_run_is_byte_deterministic(tmp_path):
    with _criterion(10, "byte-identical reruns", 120.0):
        raw = {
            "seed": 1010,
            "output_dir": str(tmp_path / "out"),
            "data": {"generator": "gaussian", "n_train": 200, "n_test": 1000},
            "classifier": {"variants": ["svm", "lr"], "etas": [0.5, 1.0],
                           "taus": [0.5], "kernels": [{"kind": "gaussian"}]},
            "risk": {"eps": [0.05, 0.1], "delta": 0.01, "beta": 0.5},
        }
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        first = {p.relative_to(out): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        assert any(p.name == "report.csv" for p in first)
        assert cli_main(["run", "--config", str(config_path)]) == 0
        second = {p.relative_to(out): p.read_bytes()
                  for p in sorted(out.rglob("*")) if p.is_file()}
        assert first == second
