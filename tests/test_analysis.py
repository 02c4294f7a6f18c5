import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcds.analysis import (
    ANALYTIC_SEED,
    CSV_HEADER,
    METHOD_ALG1,
    METHOD_ALG2,
    METHOD_ER_DEGREE,
    METHOD_GD_BITS,
    METHOD_IDEAL,
    METHOD_KEYS,
    METHOD_OURS,
    CsvRow,
    compare_ds_sizes,
    distinct_key_curve,
    er_degree_curve,
    er_threshold_p,
    expected_gd_degree,
    gd_storage_curve,
    ideal_ds_size,
    write_csv,
)


class TestIdealSize:
    def test_exact_values(self):
        assert ideal_ds_size(100, 9) == 10
        assert ideal_ds_size(101, 9) == 11
        assert ideal_ds_size(60, 5) == 10
        assert ideal_ds_size(0, 9) == 0
        assert ideal_ds_size(1, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_ds_size(-1, 9)
        with pytest.raises(ValueError):
            ideal_ds_size(10, -1)


class TestConnectivityThreshold:
    def test_reference_point(self):
        assert er_threshold_p(100, 0.99) == pytest.approx(0.09205319412764671, abs=1e-15)
        assert expected_gd_degree(100, 0.99) == pytest.approx(9.113266218637024, abs=1e-12)

    def test_clamping(self):
        assert er_threshold_p(2, 0.99) == 1.0
        assert er_threshold_p(2, 0.01) == 0.0

    def test_monotone_in_pc(self):
        # surviving with higher probability demands more links
        for n in (20, 50, 100, 200):
            assert er_threshold_p(n, 0.999) > er_threshold_p(n, 0.99) > er_threshold_p(n, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            er_threshold_p(1, 0.5)
        with pytest.raises(ValueError):
            er_threshold_p(10, 0.0)
        with pytest.raises(ValueError):
            er_threshold_p(10, 1.0)


class TestCurves:
    def test_distinct_keys_is_linear_in_n(self):
        rows = distinct_key_curve([0, 10, 55, 200], eta=9)
        assert [(r.n, r.value) for r in rows] == [(0, 0.0), (10, 10.0), (55, 55.0), (200, 200.0)]
        assert {r.experiment for r in rows} == {"distinct_keys_eta9"}

    def test_distinct_keys_independent_of_eta(self):
        a = distinct_key_curve(range(0, 100, 7), eta=5)
        b = distinct_key_curve(range(0, 100, 7), eta=20)
        assert [r.value for r in a] == [r.value for r in b]

    def test_gd_storage_series_per_key_width(self):
        rows = gd_storage_curve([0, 10], [64, 128])
        assert [(r.experiment, r.n, r.value) for r in rows] == [
            ("gd_bits_k64", 0, 64.0),
            ("gd_bits_k64", 10, 704.0),
            ("gd_bits_k128", 0, 128.0),
            ("gd_bits_k128", 10, 1408.0),
        ]

    def test_gd_storage_validation(self):
        with pytest.raises(ValueError):
            gd_storage_curve([1], [0])
        with pytest.raises(ValueError):
            gd_storage_curve([-1], [64])

    def test_er_degree_curve_values(self):
        rows = er_degree_curve([100, 200], [0.99])
        assert rows[0].value == expected_gd_degree(100, 0.99)
        assert [r.n for r in rows] == [100, 200]
        assert {r.experiment for r in rows} == {"er_degree_pc0.99"}


class TestRowLayout:
    def test_series_lands_in_experiment_column(self):
        assert distinct_key_curve([40], eta=9) == [
            CsvRow("distinct_keys_eta9", 40, 0.0, 9, ANALYTIC_SEED, METHOD_KEYS, 40.0)
        ]
        assert er_degree_curve([40], [0.9]) == [
            CsvRow("er_degree_pc0.9", 40, 0.0, 0, ANALYTIC_SEED, METHOD_ER_DEGREE, expected_gd_degree(40, 0.9))
        ]

    def test_analytic_seed_default(self):
        rows = distinct_key_curve([1], 9) + gd_storage_curve([1], [64]) + er_degree_curve([20], [0.9])
        assert {r.seed for r in rows} == {ANALYTIC_SEED} == {-1}

    def test_eta_from_x_mirrors_abscissa(self):
        rows = gd_storage_curve([4, 9], [128])
        assert rows == [
            CsvRow("gd_bits_k128", 4, 0.0, 4, ANALYTIC_SEED, METHOD_GD_BITS, 640.0),
            CsvRow("gd_bits_k128", 9, 0.0, 9, ANALYTIC_SEED, METHOD_GD_BITS, 1280.0),
        ]


class TestCsv:
    def rows(self):
        return [
            CsvRow("exp_a", 20, 6.0, 9, -1, METHOD_IDEAL, 2.0),
            CsvRow("exp_a", 20, 6.0, 9, 0, METHOD_OURS, 4.0),
            CsvRow("exp_a", 20, 6.5, 9, 1, METHOD_ALG1, 3.25),
        ]

    @staticmethod
    def read(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, self.rows())
        assert self.read(p) == [
            list(CSV_HEADER),
            ["exp_a", "20", "6", "9", "-1", METHOD_IDEAL, "2"],
            ["exp_a", "20", "6", "9", "0", METHOD_OURS, "4"],
            ["exp_a", "20", "6.5", "9", "1", METHOD_ALG1, "3.25"],
        ]

    def test_exact_bytes(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, self.rows()[:1])
        data = p.read_bytes()
        assert data == b"experiment,n,degree,eta,seed,method,value\nexp_a,20,6,9,-1,ideal_eq2,2\n"

    @given(
        rows=st.lists(
            st.builds(
                CsvRow,
                experiment=st.sampled_from(["a", "b_c", "compare_deg6"]),
                n=st.integers(min_value=0, max_value=10**6),
                degree=st.floats(allow_nan=False, allow_infinity=False, width=64),
                eta=st.integers(min_value=0, max_value=100),
                seed=st.integers(min_value=-1, max_value=10**6),
                method=st.sampled_from([METHOD_OURS, METHOD_ALG1, METHOD_ALG2]),
                value=st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, rows, tmp_path_factory):
        p = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(p, rows)
        header, *back = self.read(p)
        assert header == list(CSV_HEADER)
        assert len(back) == len(rows)
        for orig, (experiment, n, degree, eta, seed, method, value) in zip(rows, back):
            assert experiment == orig.experiment
            assert int(n) == orig.n
            assert float(degree) == orig.degree
            assert int(eta) == orig.eta
            assert int(seed) == orig.seed
            assert method == orig.method
            assert float(value) == orig.value


class TestCompareSweep:
    def test_small_sweep_row_inventory(self):
        report = compare_ds_sizes([20], 12.0, eta=9, seeds=[0, 1])
        assert report.missing == ()
        assert len(report.rows) == 1 + 2 * 3
        ideal = [r for r in report.rows if r.method == METHOD_IDEAL]
        assert ideal == [CsvRow("compare_deg12", 20, 12.0, 9, -1, METHOD_IDEAL, 2.0)]
        by_method = {r.method for r in report.rows}
        assert by_method == {METHOD_IDEAL, METHOD_OURS, METHOD_ALG1, METHOD_ALG2}
        for r in report.rows:
            if r.method != METHOD_IDEAL:
                assert r.seed in (0, 1)
                assert r.value >= 1.0

    def test_mean_helper(self):
        report = compare_ds_sizes([20], 12.0, eta=9, seeds=[0, 1])
        m = report.mean(METHOD_ALG1, 20)
        vals = [r.value for r in report.rows if r.method == METHOD_ALG1]
        assert m == sum(vals) / 2
        assert report.mean(METHOD_ALG1, 999) is None

    def test_deterministic(self):
        a = compare_ds_sizes([20], 12.0, eta=9, seeds=[3])
        b = compare_ds_sizes([20], 12.0, eta=9, seeds=[3])
        assert a == b

    def test_zero_retry_budget_marks_missing(self):
        # sparse enough that seed 0 is disconnected on the first draw
        report = compare_ds_sizes([60], 2.0, eta=9, seeds=[0], retry_budget=0)
        assert report.missing == ((60, 0),)
        assert [r.method for r in report.rows] == [METHOD_IDEAL]

    def test_negative_retry_budget_refused(self):
        # A negative budget would draw nothing and report every point missing.
        with pytest.raises(ValueError, match="need --retry-budget >= 0"):
            compare_ds_sizes([20], 6.0, seeds=[0], retry_budget=-1)
