"""The benchmark harness itself (small configurations)."""

import pytest

from repro.bench import (
    MicroPoint,
    format_table,
    reduction_vs,
    run_matrix,
    run_microbenchmark,
    series_by,
    validation_overhead_rows,
)
from repro.stamp import KmeansWorkload, Ssca2Workload


class TestMicrobench:
    def test_points_cover_all_algorithms(self):
        points = run_microbenchmark(4, 8, seeds=3, n_txns=60)
        assert {p.algorithm for p in points} == {"2PL", "TOCC", "ROCoCo"}

    def test_rococo_lowest_abort_rate(self):
        points = run_microbenchmark(16, 16, seeds=5, n_txns=100)
        rates = {p.algorithm: p.abort_rate for p in points}
        assert rates["ROCoCo"] <= rates["TOCC"] <= rates["2PL"]

    def test_reduction_vs(self):
        points = run_microbenchmark(16, 16, seeds=5, n_txns=100)
        reductions = reduction_vs(points, baseline="TOCC", candidate="ROCoCo")
        assert (16, 16) in reductions
        assert 0.0 <= reductions[(16, 16)] <= 1.0

    def test_collision_rate_attached(self):
        points = run_microbenchmark(4, 16, seeds=2, n_txns=40)
        assert all(abs(p.collision_rate - 0.223) < 0.01 for p in points)


class TestStampMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_matrix(
            workloads=[KmeansWorkload, Ssca2Workload],
            threads=(1, 4),
            scale=0.25,
        )

    def test_grid_complete(self, matrix):
        assert len(matrix.cells) == 2 * 3 * 2
        assert matrix.workloads() == ["kmeans", "ssca2"]

    def test_get_cell(self, matrix):
        cell = matrix.get("kmeans", "TinySTM", 4)
        assert cell.speedup > 0
        assert 0 <= cell.abort_rate <= 1

    def test_geomeans(self, matrix):
        g = matrix.geomean_speedup("ROCoCoTM", 4)
        assert g > 0
        ratio = matrix.geomean_ratio("ROCoCoTM", "TinySTM", 4)
        assert ratio == pytest.approx(
            (
                matrix.get("kmeans", "ROCoCoTM", 4).speedup
                / matrix.get("kmeans", "TinySTM", 4).speedup
                * matrix.get("ssca2", "ROCoCoTM", 4).speedup
                / matrix.get("ssca2", "TinySTM", 4).speedup
            )
            ** 0.5
        )

    def test_missing_cell_raises(self, matrix):
        with pytest.raises(KeyError):
            matrix.get("kmeans", "TinySTM", 99)


class TestValidationRows:
    def test_rows_have_both_systems(self):
        rows = validation_overhead_rows([KmeansWorkload], n_threads=4, scale=0.25)
        assert rows[0]["workload"] == "kmeans"
        assert rows[0]["TinySTM"] > 0
        assert rows[0]["ROCoCoTM"] > 0

    def test_quarantined_cell_drops_its_row(self):
        """A ``None`` result (a cell the supervised runner quarantined)
        skips that workload's row instead of raising."""
        from repro.exec import SerialRunner

        class QuarantineKmeansTinySTM(SerialRunner):
            def run(self, specs, progress=None):
                results = super().run(specs, progress)
                return [
                    None if (s.workload, s.backend) == ("kmeans", "TinySTM") else r
                    for s, r in zip(specs, results)
                ]

        rows = validation_overhead_rows(
            [KmeansWorkload, Ssca2Workload], n_threads=2, scale=0.1,
            runner=QuarantineKmeansTinySTM(),
        )
        assert [row["workload"] for row in rows] == ["ssca2"]
        assert rows[0]["TinySTM"] > 0 and rows[0]["ROCoCoTM"] > 0


class TestReporting:
    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["a", 1.2345], ["b", 0.001]], title="T"
        )
        assert "T" in text
        assert "a" in text and "1.234" in text
        assert "1.00e-03" in text

    def test_series_by(self):
        points = [
            MicroPoint("x", 4, 8, 0.1, 0.2, 10, 2),
            MicroPoint("x", 4, 16, 0.2, 0.3, 10, 3),
        ]
        series = series_by(points, ["algorithm", "concurrency"], "abort_rate")
        assert series[("x", 4)] == [0.2, 0.3]
