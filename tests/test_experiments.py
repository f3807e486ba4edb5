"""Tests for the experiment harness: each table/figure runs at tiny scale
and satisfies its paper-shape assertions."""

import statistics

import pytest

from repro import AutoregressiveModel, Node2VecModel
from repro.exceptions import ExperimentError
from repro.experiments import (
    Report,
    Table,
    available_experiments,
    get_experiment,
    run_experiment,
)
from repro.experiments import figure1, figure4, figure7, figure8, figure9
from repro.experiments import table3, table4, table5
from repro.experiments.figure7 import TaskConfig

TINY = {"scale": 0.12}
FAST_TASK = TaskConfig(
    walks_per_node=1, walk_length=6, pagerank_queries=2, pagerank_samples=40
)
ONE_MODEL = {"NV(0.25,4)": Node2VecModel(0.25, 4.0)}
AUTO_MODEL = {"Auto(0.8)": AutoregressiveModel(0.8)}


class TestReporting:
    def test_table_add_and_render(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        text = t.render()
        assert "demo" in text and "2.500" in text

    def test_table_wrong_arity(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ExperimentError):
            t.add_row(1)

    def test_table_column(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]
        with pytest.raises(ExperimentError):
            t.column("c")

    def test_report_lookup(self):
        r = Report("x", "desc")
        t = r.add_table(Table("t1", ["c"]))
        assert r.table("t1") is t
        with pytest.raises(ExperimentError):
            r.table("t2")

    def test_report_render_includes_notes(self):
        r = Report("x", "desc")
        r.add_note("hello")
        assert "hello" in r.render()

    def test_none_cells_render_dash(self):
        t = Table("demo", ["a"])
        t.add_row(None)
        assert "-" in t.render()


class TestRegistry:
    def test_all_registered(self):
        names = available_experiments()
        assert len(names) == 10
        assert {"figure1", "figure4", "figure7", "figure8", "figure9",
                "table3", "table4", "table5", "ablation",
                "validation"} == set(names)

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("figure99")

    def test_run_by_name(self):
        report = run_experiment("table4", scale=0.1, rng=0)
        assert report.name == "table4"


class TestFigure1:
    def test_shape(self):
        report = figure1.run(scale=0.1, rng=0)
        table = report.table("Alias memory explosion")
        assert len(table.rows) == 6
        # The headline shape: alias footprint dwarfs the graph size.
        for ratio in table.column("ratio"):
            assert ratio > 10


class TestTable4:
    def test_footprint_ordering(self):
        report = table4.run(scale=0.1, rng=0)
        table = report.table("Memory footprints")
        for row in table.rows:
            _, naive, rejection, alias, size = row
            assert naive < rejection < alias
            assert rejection > size  # rejection ~ graph size or above
            assert alias > 10 * size


class TestFigure4:
    def test_estimation_converges(self):
        report = figure4.run(scale=0.1, thresholds=(5, 40), rng=0)
        # One histogram table per model.
        assert len(report.tables) == 4
        for table in report.tables:
            exact = table.column("exact")
            est = table.column("D_th=40")
            assert sum(exact) == sum(est)  # same node total
            # Larger threshold tracks the exact histogram within 30%.
            diff = sum(abs(a - b) for a, b in zip(exact, est))
            assert diff <= 0.6 * sum(exact)


class TestTable3:
    def test_estimation_saves_time(self):
        report = table3.run(
            datasets=("flickr",), scale=0.15, degree_threshold=10, rng=0
        )
        table = report.tables[0]
        # Estimation must cut the ratio-evaluation count (the O(Σ d_v²) →
        # O(Σ d_v·D_th) claim of §3.3); wall-clock savings only emerge at
        # degrees far beyond this tiny stand-in.
        saves = table.column("eval save %")
        assert min(saves) > 30
        drift = table.column("mean |ΔC_v|")
        assert all(d < 3.0 for d in drift)


class TestFigure7:
    def test_lp_beats_degree_at_low_budget(self):
        report = figure7.run(
            datasets=("livejournal",),
            ratios=(0.1, 1.0),
            scale=0.12,
            config=FAST_TASK,
            models=ONE_MODEL,
            rng=0,
        )
        table = report.tables[0]
        rows = {
            (r[1], r[2]): r for r in table.rows  # (algorithm, ratio) -> row
        }
        modeled = {key: row[4] for key, row in rows.items()}
        # Modeled cost: LP-std at 0.1 beats both degree variants at 0.1.
        assert modeled[("LP-std", 0.1)] <= modeled[("Deg-inc", 0.1)]
        assert modeled[("LP-std", 0.1)] <= modeled[("Deg-dec", 0.1)]
        # All algorithms improve (or tie) from ratio 0.1 to 1.0.
        for algo in ("LP-std", "LP-est", "Deg-inc", "Deg-dec"):
            assert modeled[(algo, 1.0)] <= modeled[(algo, 0.1)]


class TestTable5:
    def test_oom_and_ordering(self):
        report = table5.run(
            datasets=("youtube", "livejournal"),
            scale=0.12,
            config=FAST_TASK,
            models=ONE_MODEL,
            rng=0,
        )
        lj = report.table(
            next(t.title for t in report.tables if t.title.startswith("livejournal"))
        )
        status = {row[1]: row[4] for row in lj.rows}
        assert status["alias"] == "OOM"
        assert status["LP-std(1.0)"] == "ok"
        assert status["LP-std(0.1)"] == "ok"
        assert status["rejection"] == "ok"


class TestFigure8:
    def test_gates_and_improvement(self):
        # NV(4,0.25) has small bounding constants, so rejection is fast and
        # the naive/rejection modeled-cost gap is wide even at tiny scale —
        # the right regime for exercising the timeout gate.
        report = figure8.run(
            datasets=("twitter",),
            multipliers=(1, 4, 10),
            scale=0.15,
            timeout_factor=10.0,
            config=FAST_TASK,
            models={"NV(4,0.25)": Node2VecModel(4.0, 0.25)},
            rng=0,
        )
        table = report.tables[0]
        status = {(row[1], row[2]): row[5] for row in table.rows}
        assert status[("naive", None)] == "timeout"
        assert status[("alias", None)] == "OOM"
        assert status[("rejection", None)] == "ok"
        # Modeled cost of MA falls with the budget multiplier.
        ma_rows = [row for row in table.rows if row[1] == "MA"]
        costs = [row[3] for row in ma_rows]
        assert costs == sorted(costs, reverse=True)


class TestFigure9:
    #: Repeats of the whole update sequence.  One update takes a few ms,
    #: so a single run's comparison flips on machine load; the medians of
    #: interleaved repeats do not.
    REPEATS = 7

    def test_updates_cheap_and_decrease_cheapest(self):
        avg_inc, avg_dec = [], []
        for _ in range(self.REPEATS):
            report = figure9.run(
                datasets=("blogcatalog",), scale=0.2, models=AUTO_MODEL, rng=0
            )
            table = report.tables[0]
            increases = [r for r in table.rows if r[3] == "increase"]
            decreases = [r for r in table.rows if r[3] == "decrease"]
            assert increases and decreases
            # Optimizer-level work: decreases only revert, increases only
            # apply.
            assert all(r[4] == 0 for r in decreases)
            assert all(r[5] == 0 for r in increases)
            avg_inc.append(sum(r[6] for r in increases) / len(increases))
            avg_dec.append(sum(r[6] for r in decreases) / len(decreases))
        # Decrease never constructs samplers → cheaper than the average
        # increase.
        assert statistics.median(avg_dec) < statistics.median(avg_inc)


class TestAblation:
    def test_shapes(self):
        from repro.experiments import ablation

        report = ablation.run(
            scale=0.15, budget_ratios=(0.1, 0.5), thresholds=(20, 60), rng=0
        )
        quality = report.table(
            "Optimizer quality (time cost vs LMCKP lower bound)"
        )
        for row in quality.rows:
            _, lp, inc, dec, lower, gap = row
            assert lower <= lp + 1e-6
            assert lp <= inc + 1e-6 and lp <= dec + 1e-6
            assert gap is None or gap < 10
        sweep = report.table("Bounding-constant estimation threshold")
        saves = sweep.column("evals saved %")
        assert saves == sorted(saves, reverse=True)  # smaller D_th saves more


class TestValidation:
    def test_checks_pass(self):
        from repro.experiments import validation

        report = validation.run(scale=0.08, samples_per_context=800, rng=0)
        tries = report.table(
            "Rejection sampler: expected vs observed proposal draws"
        )
        for ratio in tries.column("ratio"):
            assert 0.8 < ratio < 1.25
        faithful = report.table("Walk faithfulness by sampler kind")
        for noise in faithful.column("max noise ratio"):
            assert noise < 4.0
        pagerank = report.table("Second-order PageRank: Monte-Carlo vs exact")
        for tv in pagerank.column("TV distance"):
            assert tv < 0.08


class TestCsvExport:
    def test_report_to_csv(self, tmp_path):
        report = run_experiment("table4", scale=0.1, rng=0)
        paths = report.to_csv(tmp_path)
        assert len(paths) == len(report.tables)
        import csv as _csv

        with open(paths[0], newline="") as handle:
            rows = list(_csv.reader(handle))
        assert rows[0] == list(report.tables[0].columns)
        assert len(rows) == len(report.tables[0].rows) + 1

    def test_cli_output_dir(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["table4", "--scale", "0.1", "--seed", "0",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        assert "CSV file(s) written" in capsys.readouterr().out
        assert list(tmp_path.glob("table4--*.csv"))

    def test_none_cells_become_empty(self, tmp_path):
        from repro.experiments import Report, Table

        report = Report("demo", "d")
        table = report.add_table(Table("t", ["a", "b"]))
        table.add_row(1, None)
        (path,) = report.to_csv(tmp_path)
        assert path.read_text().splitlines()[1] == "1,"


class TestAsciiChart:
    def test_basic_render(self):
        from repro.experiments.reporting import ascii_bar_chart

        chart = ascii_bar_chart(["a", "bb"], [10.0, 20.0], width=10)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10  # the max bar fills the width
        assert lines[0].count("#") == 5

    def test_log_scale(self):
        from repro.experiments.reporting import ascii_bar_chart

        chart = ascii_bar_chart(
            ["x", "y"], [10.0, 1000.0], width=30, log_scale=True
        )
        short, long = (line.count("#") for line in chart.splitlines())
        assert long == 30
        assert short == 10  # log10(10)/log10(1000) = 1/3

    def test_mismatched_lengths(self):
        from repro.experiments.reporting import ascii_bar_chart

        with pytest.raises(ExperimentError):
            ascii_bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        from repro.experiments.reporting import ascii_bar_chart

        assert "empty" in ascii_bar_chart([], [])

    def test_minimum_one_hash(self):
        from repro.experiments.reporting import ascii_bar_chart

        chart = ascii_bar_chart(["a", "b"], [0.0001, 100.0], width=20)
        assert all("#" in line for line in chart.splitlines())


class TestCommonFootprints:
    def test_footprint_helpers_consistent_with_cost_table(self):
        import numpy as np

        from repro import CostParams, build_cost_table, Node2VecModel
        from repro.bounding import BoundingConstants
        from repro.experiments.common import (
            alias_footprint,
            naive_footprint,
            rejection_footprint,
        )
        from repro.graph import barabasi_albert_graph

        graph = barabasi_albert_graph(60, 3, rng=0)
        params = CostParams()
        constants = BoundingConstants(values=np.ones(60))
        table = build_cost_table(graph, constants, params)
        assert rejection_footprint(graph.degrees, params) == pytest.approx(
            float(table.memory[:, 1].sum())
        )
        assert alias_footprint(graph.degrees, params) == pytest.approx(
            float(table.memory[:, 2].sum())
        )
        # Naive: the helper reports the single shared buffer, the table
        # amortises it per node — the totals agree.
        assert naive_footprint(graph.degrees, params) == pytest.approx(
            float(table.memory[:, 0].sum())
        )
