"""Unit tests for the cost model and Table-1 reporting."""

import pytest

from repro.cost import (
    CostModel,
    CycleCounter,
    PAPER_TABLE1,
    PartitionRow,
    Table1,
    format_table1,
    shape_checks,
)
from repro.pipeline import Pipeline
from repro.rtos.kernel import KernelStats


SIMPLE = """
module m (input pure s, output pure t)
{
    while (1) { await (s); emit (t); }
}
"""

WITH_DATA = """
module m (input int v, output int w)
{
    int i;
    int acc;
    while (1) {
        await (v);
        for (i = 0, acc = 0; i < 16; i++) { acc = acc + v; }
        emit_v (w, acc);
    }
}
"""


def efsm_of(src):
    return Pipeline().compile_text(src).module("m").efsm()


class TestCycleCounter:
    def test_counts_accumulate(self):
        counter = CycleCounter()
        counter.count("alu", 3)
        counter.count("mem")
        assert counter.counts["alu"] == 3
        assert counter.counts["mem"] == 1

    def test_merge(self):
        a, b = CycleCounter(), CycleCounter()
        a.count("alu", 2)
        b.count("alu", 3)
        a.merge(b)
        assert a.counts["alu"] == 5

    def test_reset(self):
        counter = CycleCounter()
        counter.count("branch", 7)
        counter.reset()
        assert counter.counts["branch"] == 0


class TestStaticEstimates:
    def test_code_size_positive(self):
        model = CostModel()
        assert model.efsm_code_bytes(efsm_of(SIMPLE)) > 0

    def test_data_functions_add_code(self):
        model = CostModel()
        assert model.efsm_code_bytes(efsm_of(WITH_DATA)) > \
            model.efsm_code_bytes(efsm_of(SIMPLE))

    def test_code_size_multiple_of_insn_bytes(self):
        model = CostModel()
        assert model.efsm_code_bytes(efsm_of(SIMPLE)) % model.insn_bytes == 0

    def test_data_size_counts_values(self):
        model = CostModel()
        simple = model.module_data_bytes(efsm_of(SIMPLE).module)
        with_data = model.module_data_bytes(efsm_of(WITH_DATA).module)
        assert with_data > simple  # two ints + valued signals

    def test_rtos_footprint_grows_with_tasks(self):
        model = CostModel()
        assert model.rtos_code_bytes(3) > model.rtos_code_bytes(1)
        assert model.rtos_data_bytes(3) > model.rtos_data_bytes(1)

    def test_shared_subtrees_counted_once(self):
        # Optimized machine (hash-consed) must not cost more than the
        # raw one.
        module = Pipeline().compile_text(SIMPLE).module("m")
        model = CostModel()
        assert model.efsm_code_bytes(module.efsm(optimized=True)) <= \
            model.efsm_code_bytes(module.efsm(optimized=False))


class TestDynamicEstimates:
    def test_task_cycles_from_counter(self):
        model = CostModel()
        counter = CycleCounter()
        counter.count("alu", 10)
        counter.count("mem", 5)
        expected = 10 * model.cycles_alu + 5 * model.cycles_mem
        assert model.task_cycles(counter) == expected

    def test_rtos_cycles_from_stats(self):
        model = CostModel()
        stats = KernelStats(dispatches=4, context_switches=2,
                            scheduler_invocations=10, posts=6,
                            self_triggers=1)
        assert model.rtos_cycles(stats) == (
            2 * model.cycles_context_switch
            + 10 * model.cycles_scheduler
            + 6 * model.cycles_post
            + 1 * model.cycles_self_trigger
            + 4 * model.cycles_dispatch)


class TestReporting:
    def make_row(self, example="Stack", partition="1 task", **kw):
        defaults = dict(task_code=1000, task_data=100, rtos_code=5000,
                        rtos_data=1500, task_kcycles=10.0,
                        rtos_kcycles=20.0)
        defaults.update(kw)
        return PartitionRow(example=example, partition=partition,
                            **defaults)

    def test_totals(self):
        row = self.make_row()
        assert row.total_code == 6000
        assert row.total_kcycles == 30.0

    def test_table_lookup(self):
        table = Table1()
        table.add(self.make_row())
        assert table.row("Stack", "1 task").task_code == 1000
        with pytest.raises(KeyError):
            table.row("Stack", "9 tasks")

    def test_format_contains_paper_rows(self):
        table = Table1()
        table.add(self.make_row())
        text = format_table1(table)
        assert "paper" in text
        assert "1008" in text  # the paper's Stack 1-task code size

    def test_paper_constants_complete(self):
        assert set(PAPER_TABLE1) == {
            ("Stack", "1 task"), ("Stack", "3 tasks"),
            ("Buffer", "1 task"), ("Buffer", "3 tasks")}

    def test_shape_checks_pass_on_paper_numbers(self):
        """The claims must hold on the paper's own table."""
        table = Table1()
        for (example, partition), numbers in PAPER_TABLE1.items():
            table.add(PartitionRow(example=example, partition=partition,
                                   **numbers))
        checks = shape_checks(table)
        assert checks and all(checks.values())

    def test_shape_checks_detect_violation(self):
        table = Table1()
        table.add(self.make_row("Buffer", "1 task", task_code=100))
        table.add(self.make_row("Buffer", "3 tasks", task_code=900,
                                rtos_code=5200, rtos_data=1700,
                                rtos_kcycles=25.0))
        checks = shape_checks(table)
        assert not checks["Buffer: single-task (product) code larger "
                          "than 3 tasks"]
