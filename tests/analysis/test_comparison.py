"""The one renderer for side-by-side fleet runs."""

import pytest

from repro.analysis.comparison import COLUMNS, Comparison
from repro.scenarios import RegionSpec, Scenario, ScenarioSpec

BATCH_COLUMNS = ("BatchReq", "BatchOnTime%", "Batch g/req", "Shift(h)")


@pytest.fixture(scope="module")
def rows():
    base = ScenarioSpec(
        regions=(RegionSpec(name="nordic-hydro"), RegionSpec(name="us-ciso")),
        fidelity="smoke",
        n_gpus=2,
        duration_h=6.0,
    )
    return {
        "static": Scenario(base).run(),
        "batch": Scenario(
            base.override("batch.jobs_per_h", 100.0).override(
                "batch.deadline_h", 2.0
            )
        ).run(),
    }


class TestTable:
    def test_one_header_per_column_and_dashes_without_batch(self, rows):
        columns = ("Carbon(g)", "SaveVsStatic%", "SLA%", *BATCH_COLUMNS)
        comparison = Comparison(
            rows, columns=columns, label_header="Run", footer=("note", "x")
        )
        headers, table = comparison.table()
        assert headers == ("Run", *columns)
        assert [len(row) for row in table] == [len(headers)] * 3
        static, batch, footer = table
        assert static[0] == "static" and static[2] == "0.00"
        assert static[-len(BATCH_COLUMNS):] == ("-",) * len(BATCH_COLUMNS)
        assert "-" not in batch[-len(BATCH_COLUMNS):]
        assert footer == ("note", "x", *("-",) * (len(headers) - 2))

    def test_tuple_labels_take_one_cell_per_header(self, rows):
        comparison = Comparison(
            {("static", "0"): rows["static"]},
            columns=("Carbon(g)",),
            label_header=("routing.router", "seed"),
        )
        headers, table = comparison.table()
        assert headers == ("routing.router", "seed", "Carbon(g)")
        assert table[0][:2] == ("static", "0")

    def test_unknown_column_names_the_valid_ones(self, rows):
        with pytest.raises(ValueError, match="Carbon\\(g\\)"):
            Comparison(rows, columns=("Carbon",))

    def test_saving_pct_reads_two_rows(self, rows):
        comparison = Comparison(rows, columns=tuple(COLUMNS))
        static = rows["static"].total_carbon_g
        expected = (1.0 - rows["batch"].total_carbon_g / static) * 100.0
        assert comparison.saving_pct("batch", vs="static") == expected
        assert comparison["batch"] is rows["batch"]
        assert comparison.labels == ("static", "batch")
