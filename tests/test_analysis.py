import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcds.analysis import (
    ANALYTIC_SEED,
    CSV_HEADER,
    METHOD_ALG1,
    METHOD_ALG2,
    METHOD_IDEAL,
    METHOD_OURS,
    CsvRow,
    CurvePoint,
    compare_ds_sizes,
    distinct_key_curve,
    er_degree_curve,
    er_threshold_p,
    expected_gd_degree,
    gd_storage_curve,
    ideal_ds_size,
    points_to_rows,
    read_csv,
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
        pts = distinct_key_curve([0, 10, 55, 200], eta=9)
        assert [(p.x, p.y) for p in pts] == [(0, 0.0), (10, 10.0), (55, 55.0), (200, 200.0)]
        assert {p.series for p in pts} == {"distinct_keys_eta9"}

    def test_distinct_keys_independent_of_eta(self):
        a = distinct_key_curve(range(0, 100, 7), eta=5)
        b = distinct_key_curve(range(0, 100, 7), eta=20)
        assert [p.y for p in a] == [p.y for p in b]

    def test_gd_storage_series_per_key_width(self):
        pts = gd_storage_curve([0, 10], [64, 128])
        assert [(p.series, p.x, p.y) for p in pts] == [
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
        pts = er_degree_curve([100, 200], [0.99])
        assert pts[0] == CurvePoint(100, "er_degree_pc0.99", expected_gd_degree(100, 0.99))
        assert pts[1].x == 200
        assert {p.series for p in pts} == {"er_degree_pc0.99"}


class TestRowLayout:
    def test_series_lands_in_experiment_column(self):
        rows = points_to_rows([CurvePoint(40, "curve_a", 7.5)], "keys", degree=6.0, eta=9, seed=3)
        assert rows == [CsvRow("curve_a", 40, 6.0, 9, 3, "keys", 7.5)]

    def test_analytic_seed_default(self):
        row = points_to_rows([CurvePoint(1, "s", 2.0)], "keys")[0]
        assert row.seed == ANALYTIC_SEED == -1

    def test_eta_from_x_mirrors_abscissa(self):
        rows = points_to_rows(gd_storage_curve([4, 9], [128]), "gd_bits", eta_from_x=True)
        assert [(r.n, r.eta) for r in rows] == [(4, 4), (9, 9)]


class TestCsv:
    def rows(self):
        return [
            CsvRow("exp_a", 20, 6.0, 9, -1, METHOD_IDEAL, 2.0),
            CsvRow("exp_a", 20, 6.0, 9, 0, METHOD_OURS, 4.0),
            CsvRow("exp_a", 20, 6.5, 9, 1, METHOD_ALG1, 3.25),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, self.rows())
        assert read_csv(p) == self.rows()

    def test_exact_bytes(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, self.rows()[:1])
        data = p.read_bytes()
        assert data == b"experiment,n,degree,eta,seed,method,value\nexp_a,20,6,9,-1,ideal_eq2,2\n"

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(p)

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(CSV_HEADER) + "\nexp,1,2\n")
        with pytest.raises(ValueError):
            read_csv(p)

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
        back = read_csv(p)
        assert len(back) == len(rows)
        for orig, rec in zip(rows, back):
            assert rec.experiment == orig.experiment
            assert rec.n == orig.n
            assert rec.degree == orig.degree
            assert rec.eta == orig.eta
            assert rec.seed == orig.seed
            assert rec.method == orig.method
            assert rec.value == orig.value


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
