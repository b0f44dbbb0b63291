"""Unit tests for kernel-term constructors and static analyses."""


from repro.esterel import kernel as k
from repro.lang import ast


def sig(name):
    return ast.SigRef(name=name)


class TestConstructors:
    def test_seq_flattens(self):
        built = k.seq(k.Emit("a"), k.seq(k.Emit("b"), k.Emit("c")))
        assert isinstance(built, k.Seq)
        assert len(built.stmts) == 3

    def test_seq_drops_nothing(self):
        built = k.seq(k.NOTHING, k.Emit("a"), k.NOTHING)
        assert built == k.Emit("a")

    def test_seq_empty_is_nothing(self):
        assert k.seq() is k.NOTHING

    def test_par_single_collapses(self):
        assert k.par(k.Emit("a")) == k.Emit("a")

    def test_par_keeps_order(self):
        built = k.par(k.Emit("a"), k.Emit("b"))
        assert [b.signal for b in built.branches] == ["a", "b"]

    def test_terms_hashable_and_equal_by_value(self):
        a = k.seq(k.Emit("x"), k.Pause())
        b = k.seq(k.Emit("x"), k.Pause())
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestMayPause:
    def test_pause_and_friends(self):
        assert k.may_pause(k.Pause())
        assert k.may_pause(k.Halt())
        assert k.may_pause(k.Await(sig("s")))

    def test_instantaneous_atoms(self):
        assert not k.may_pause(k.NOTHING)
        assert not k.may_pause(k.Emit("a"))
        assert not k.may_pause(k.Exit(0))

    def test_branching(self):
        stmt = k.Present(sig("s"), k.Pause(), k.NOTHING)
        assert k.may_pause(stmt)
        stmt = k.Present(sig("s"), k.Emit("a"), k.Emit("b"))
        assert not k.may_pause(stmt)

    def test_nested(self):
        stmt = k.Trap(k.par(k.Emit("a"), k.seq(k.Emit("b"), k.Pause())))
        assert k.may_pause(stmt)


class TestMustTerminateInstantly:
    def test_straight_line(self):
        assert k.must_terminate_instantly(k.seq(k.Emit("a"), k.Emit("b")))

    def test_pause_breaks_it(self):
        assert not k.must_terminate_instantly(
            k.seq(k.Emit("a"), k.Pause()))

    def test_exit_breaks_it(self):
        # An exit is not instantaneous termination of the loop body —
        # it escapes the loop instead, which is fine.
        assert not k.must_terminate_instantly(k.Exit(0))

    def test_both_branches_needed(self):
        stmt = k.Present(sig("s"), k.Emit("a"), k.Pause())
        assert not k.must_terminate_instantly(stmt)
        stmt = k.Present(sig("s"), k.Emit("a"), k.Emit("b"))
        assert k.must_terminate_instantly(stmt)


class TestSignalAnalyses:
    def test_emitted_signals(self):
        stmt = k.seq(k.Emit("a"), k.Present(sig("x"), k.Emit("b"),
                                            k.NOTHING))
        assert k.emitted_signals(stmt) == {"a", "b"}

    def test_tested_signals(self):
        stmt = k.seq(
            k.Await(ast.SigAnd(left=sig("p"), right=sig("q"))),
            k.Abort(k.Halt(), sig("r")),
        )
        assert k.tested_signals(stmt) == {"p", "q", "r"}

    def test_signals_used_combines(self):
        stmt = k.Present(sig("in1"), k.Emit("out1"), k.NOTHING)
        assert k.signals_used(stmt) == {"in1", "out1"}


class TestInstantEmits:
    def test_both_branches_count(self):
        stmt = k.Present(sig("x"), k.Emit("a"), k.Emit("b"))
        assert k.instant_emits(stmt) == {"a", "b"}

    def test_seq_stops_after_pause(self):
        stmt = k.seq(k.Emit("a"), k.Pause(), k.Emit("b"))
        assert k.instant_emits(stmt) == {"a"}

    def test_seq_stops_after_exit_and_loop(self):
        assert k.instant_emits(k.seq(k.Exit(0), k.Emit("b"))) == set()
        loop = k.Loop(k.seq(k.Emit("a"), k.Pause()))
        assert k.instant_emits(k.seq(loop, k.Emit("b"))) == {"a"}

    def test_trap_terminates_on_its_exit(self):
        caught = k.seq(k.Trap(k.seq(k.Emit("a"), k.Exit(0))), k.Emit("b"))
        assert k.instant_emits(caught) == {"a", "b"}

    def test_abort_handler_only_once_active(self):
        body = k.seq(k.Emit("a"), k.Halt())
        assert k.instant_emits(k.Abort(body, sig("r"), k.Emit("h"))) \
            == {"a"}
        active = k.AbortActive(k.Halt(), sig("r"), k.Emit("h"))
        assert k.instant_emits(k.seq(active, k.Emit("b"))) == {"h", "b"}

    def test_suspend_active_may_freeze(self):
        active = k.SuspendActive(k.NOTHING, sig("r"))
        assert k.instant_emits(k.seq(active, k.Emit("b"))) == {"b"}
        frozen = k.SuspendActive(k.Halt(), sig("r"))
        assert k.instant_emits(k.seq(frozen, k.Emit("b"))) == set()

    def test_par_terminates_only_when_every_branch_can(self):
        done = k.Par((k.Emit("a"), k.NOTHING))
        assert k.instant_emits(k.seq(done, k.Emit("b"))) == {"a", "b"}
        paused = k.ParActive((None, k.Pause()))
        assert k.instant_emits(k.seq(paused, k.Emit("b"))) == set()

    def test_await_resumes_into_what_follows(self):
        assert k.instant_emits(k.seq(k.Await(sig("s")), k.Emit("a"))) \
            == set()
        assert k.instant_emits(k.seq(k.AwaitActive(sig("s")),
                                     k.Emit("a"))) == {"a"}


class TestScheduleBranches:
    def test_emitter_moves_before_tester(self):
        tester = k.Present(sig("mid"), k.Emit("seen"), k.NOTHING)
        emitter = k.Emit("mid")
        ordered = k.schedule_branches([tester, emitter])
        assert ordered[0] is emitter

    def test_stable_when_independent(self):
        a, b, c = k.Emit("a"), k.Emit("b"), k.Emit("c")
        assert k.schedule_branches([a, b, c]) == (a, b, c)

    def test_chain_ordering(self):
        first = k.Emit("x")
        second = k.Present(sig("x"), k.Emit("y"), k.NOTHING)
        third = k.Present(sig("y"), k.Emit("z"), k.NOTHING)
        ordered = k.schedule_branches([third, second, first])
        assert ordered == (first, second, third)

    def test_cycle_keeps_source_order(self):
        a = k.seq(k.Present(sig("q"), k.Emit("p"), k.NOTHING))
        b = k.seq(k.Present(sig("p"), k.Emit("q"), k.NOTHING))
        ordered = k.schedule_branches([a, b])
        assert ordered == (a, b)

    def test_self_dependency_ignored(self):
        selfish = k.seq(k.Emit("p"), k.Present(sig("p"), k.Emit("r"),
                                               k.NOTHING))
        assert k.schedule_branches([selfish]) == (selfish,)
