"""Acceptance suite: one printed PASS/FAIL line per criterion.

Lines go to the real stdout so they survive pytest capture; run with
`pytest -v` and grep for "criterion". Each test owns one numbered criterion
and pins its tolerance and, where stated, a wall-clock budget.
"""

import json
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import exact_frequency_table, random_element, random_povm
from detomo import (
    HermitianOperator,
    NoiseSpec,
    NormalizedElement,
    Partition,
    analyze_povm,
    assignment_matrix,
    bipartitions,
    classify_povm,
    crosstalk_error,
    full_split,
    ideal_povm,
    make_noisy_povm,
    mitigate_histogram,
    mle_reconstruct,
    mub_preparations,
    normalize,
    nppt_test,
    sample_counts,
    trace_distance,
    validate_povm,
)
from detomo import FrequencyTable
from detomo.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

ORACLE_CLASSICAL_CORR_DC = 0.4142136

_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_past_capture(capfd):
    # fd-level capture would swallow prints even to sys.__stdout__; stash the
    # fixture so the criterion lines can temporarily disable it
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _line(num: int, desc: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    text = f"[{status}] criterion {num}: {desc} ({elapsed:.1f}s)"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(text, flush=True)
    else:
        print(text, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num: int, desc: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _line(num, desc, False, time.monotonic() - start)
        raise
    elapsed = time.monotonic() - start
    ok = budget is None or elapsed < budget
    _line(num, desc, ok, elapsed)
    if not ok:
        pytest.fail(f"criterion {num} exceeded its {budget:.0f}s budget: {elapsed:.1f}s")


def test_criterion_1_povm_validity():
    with criterion(1, "ideal and simulated POVMs are PSD and complete", budget=5.0):
        for n in (1, 2, 3, 4):
            report = validate_povm(ideal_povm(n))
            assert report.ok
            assert min(report.min_eigenvalues) >= -1e-9
            assert report.completeness_residual <= 1e-8
        specs = [
            (2, NoiseSpec(kind="local_flip", p=0.07)),
            (3, NoiseSpec(kind="local_flip", flip_probs=(0.01, 0.2, 0.05))),
            (2, NoiseSpec(kind="classical_corr", p=0.03, w=0.5)),
            (2, NoiseSpec(kind="entangled", p=0.6)),
            (3, NoiseSpec(kind="entangled", p=1.0, pair=(0, 2))),
        ]
        for n, spec in specs:
            assert validate_povm(make_noisy_povm(n, spec)).ok


def test_criterion_2_mle_recovers_exact_frequencies():
    with criterion(
        2, "MLE from exact frequencies recovers 20 random two-qubit POVMs to 1e-3", budget=120.0
    ):
        preps = mub_preparations(2)
        # ill-conditioned draws plateau near delta 1e-8 (float64 floor), so
        # stop at 1e-7; recovery accuracy stays far below the 1e-3 gate
        rng = np.random.default_rng(2202)
        for _ in range(20):
            truth = random_povm(2, rng)
            assert validate_povm(truth).ok
            table = exact_frequency_table(truth, preps)
            fitted, diag = mle_reconstruct(table, preps, epsilon=1e-7)
            assert diag.converged
            worst = max(
                trace_distance(normalize(fitted.element(o)), normalize(truth.element(o)))
                for o in truth.outcomes
            )
            assert worst <= 1e-3


def test_criterion_3_mle_statistical_accuracy():
    with criterion(
        3,
        "MLE from 36x8192 sampled shots stays within 0.03 mean error over 10 seeds",
        budget=180.0,
    ):
        truth = make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.1))
        preps = mub_preparations(2)
        errors = []
        for seed in range(10):
            doc = sample_counts(truth, preps, shots=8192, seed=seed)
            counts = np.zeros((4, 36), dtype=np.int64)
            for k, rec in enumerate(doc["preparations"]):
                for key, value in rec["counts"].items():
                    counts[int(key, 2), k] = value
            table = FrequencyTable.from_counts(counts, np.full(36, 8192))
            fitted, diag = mle_reconstruct(table, preps)
            assert diag.converged
            assert diag.completeness_residuals.max() <= 1e-8
            assert diag.log_likelihoods[-1] >= diag.log_likelihoods[0] - 1e-9
            errors.extend(
                trace_distance(normalize(fitted.element(o)), normalize(truth.element(o)))
                for o in truth.outcomes
            )
        assert float(np.mean(errors)) <= 0.03


def test_criterion_4_crosstalk_distance_soundness():
    with criterion(
        4,
        "product elements fit to < 1e-3 and the correlated-flip element matches its"
        " scanned distance within 0.02",
        budget=120.0,
    ):
        product_povms = [
            make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.15)),
            make_noisy_povm(3, NoiseSpec(kind="local_flip", flip_probs=(0.05, 0.2, 0.1))),
        ]
        for povm in product_povms:
            report = analyze_povm(povm)
            assert report.rows
            assert all(row.d_c < 1e-3 for row in report.rows)

        split = Partition(((0,), (1,)))
        corr = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=1.0))
        d_c = crosstalk_error(normalize(corr.element("00")), split)
        assert d_c == pytest.approx(ORACLE_CLASSICAL_CORR_DC, abs=0.02)


def test_criterion_5_triangle_inequality():
    with criterion(5, "D_N <= D_C + D_L* within 1e-9 on every analyzed row"):
        povms = [
            make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=1.0)),
            make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.6)),
            random_povm(2, np.random.default_rng(55)),
        ]
        for povm in povms:
            report = analyze_povm(povm)
            assert report.rows
            assert report.max_triangle_residual <= 1e-9


def test_criterion_6_partition_refinement_monotonicity():
    with criterion(
        6, "full-split distance dominates every bipartition distance (20 elements, 5e-3 slack)"
    ):
        rng = np.random.default_rng(661)
        labels = (0, 1, 2)
        for _ in range(20):
            elem = random_element(3, rng)
            d_full = crosstalk_error(elem, full_split(labels))
            for bp in bipartitions(labels):
                assert d_full >= crosstalk_error(elem, bp) - 5e-3


def test_criterion_7_nppt_detection():
    with criterion(7, "partial-transpose verdicts match known states and thresholds"):
        bell = np.zeros((4, 4), dtype=complex)
        bell[np.ix_((0, 3), (0, 3))] = 0.5
        split = Partition(((0,), (1,)))
        verdict = nppt_test(NormalizedElement(HermitianOperator(bell, (0, 1))), split)
        assert verdict.nppt
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-9)

        def werner_is_nppt(p: float) -> bool:
            m = p * bell + (1.0 - p) * np.eye(4) / 4.0
            return nppt_test(NormalizedElement(HermitianOperator(m, (0, 1))), split).nppt

        lo, hi = 0.0, 1.0
        assert not werner_is_nppt(lo) and werner_is_nppt(hi)
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if werner_is_nppt(mid):
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(1.0 / 3.0, abs=0.02)

        assert not classify_povm(ideal_povm(2)).any_nppt
        assert not classify_povm(make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.2))).any_nppt
        assert not classify_povm(
            make_noisy_povm(2, NoiseSpec(kind="classical_corr", p=0.05, w=0.8))
        ).any_nppt


def _normalized(path: Path) -> str:
    text = path.read_text()
    return re.sub(r'"created_at": "[^"]*"', '"created_at": "T"', text)


# D_L* and the triangle residual depend on where the BFGS polish stops, not
# only on the distance it reaches: the nearest product sits in a valley so
# flat that D_C changes by 1e-13 where D_L* changes by 1e-9. Across BLAS
# builds they are trusted to 1e-6 (README, "Crosstalk fits"). They are cut
# out of the text and compared numerically; every other byte is compared
# exactly.
_UNPINNED_TOL = 1e-6
_UNPINNED = (
    re.compile(r'("(?:D_L_star|triangle_residual)": )([^,\n]+)'),  # report JSON
    re.compile(r"(,)([^,\n]+)(?=,(?:True|False),\d+$)", re.M),  # crosstalk CSV D_L_star
)


def _split_unpinned(path: Path) -> tuple[str, list[float]]:
    text = _normalized(path)
    values = []
    for pattern in _UNPINNED:
        values += [float(m.group(2)) for m in pattern.finditer(text)]
        text = pattern.sub(r"\1*", text)
    return text, values


def test_criterion_8_end_to_end_pipeline_matches_golden(tmp_path, monkeypatch):
    with criterion(
        8, "CLI pipeline detects planted crosstalk and reproduces the golden outputs",
        budget=300.0,
    ):
        monkeypatch.chdir(tmp_path)
        assert cli_main(
            ["simulate", "--n", "2", "--noise", "entangled", "--p", "0.6",
             "--shots", "8192", "--seed", "2024", "--out", "counts.json"]
        ) == 0
        assert cli_main(["reconstruct", "--counts", "counts.json", "--out", "povm.json"]) == 0
        assert cli_main(["analyze", "--povm", "povm.json", "--out", "report"]) == 0

        crosstalk = json.loads(Path("report.crosstalk.json").read_text())
        row00 = next(r for r in crosstalk["rows"] if r["outcome"] == "00")
        assert row00["D_C"] > 0.05
        ppt = json.loads(Path("report.ppt.json").read_text())
        assert any(r["verdict"] == "N" for r in ppt["rows"])

        for name in ("counts.json", "counts.truth.json", "povm.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        for name in (
            "povm.diag.json", "report.crosstalk.json", "report.ppt.json",
            "report.crosstalk.csv", "report.ppt.csv",
        ):
            got_text, got = _split_unpinned(tmp_path / name)
            want_text, want = _split_unpinned(GOLDEN / name)
            assert got_text == want_text, name
            np.testing.assert_allclose(got, want, rtol=0, atol=_UNPINNED_TOL, err_msg=name)


def test_criterion_9_mitigation_round_trip():
    with criterion(9, "histogram mitigation inverts the assignment matrix to 1e-9"):
        a = assignment_matrix(make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.1)))
        rng = np.random.default_rng(99)
        for _ in range(100):
            x = rng.dirichlet(np.full(4, 0.7))
            recovered = mitigate_histogram(a, a @ x)
            assert np.abs(recovered - x).max() <= 1e-9
