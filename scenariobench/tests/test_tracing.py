"""Span arithmetic and wrapper install/uninstall."""

import types

import pytest

from tracing import Patches, Span, Tracer, layer_totals, outermost, self_time_ns, traced


def tree() -> list[Span]:
    # run [0, 100): a [10, 40) with a child a2 [20, 30); b [35, 60)
    # overlapping a; c [90, 120) sticking out past the run's end.
    return [
        Span(0, None, "run", 0, 100),
        Span(1, 0, "a", 10, 40),
        Span(2, 1, "a", 20, 30),
        Span(3, 0, "b", 35, 60),
        Span(4, 0, "c", 90, 120),
        Span(5, 3, "a", 40, 45, n=7),
    ]


def test_self_time_subtracts_the_union_of_direct_children():
    spans = tree()
    # children of run cover [10, 60) and [90, 100): 60 of 100 ns.
    assert self_time_ns(spans, 0) == 40
    assert self_time_ns(spans, 1) == 20  # a minus its child a2
    assert self_time_ns(spans, 3) == 20  # b minus a [40, 45)
    assert self_time_ns(spans, 2) == 10  # a leaf keeps its duration


def test_layer_totals_count_only_outermost_spans_of_a_layer():
    spans = tree()
    top = outermost(spans, {"a"})
    assert [s.id for s in top] == [1, 5]  # a2 nests in a; a under b counts
    assert layer_totals(spans, {"a"}) == (2, 35e-9, 7)
    assert layer_totals(spans, {"missing"}) == (0, 0.0, 0)


def test_tracer_records_parents_and_closes_on_error():
    tracer = Tracer("r1")
    with tracer.span("outer"):
        inner = traced(tracer, "inner")(lambda x: x + 1)
        assert inner(1) == 2
        failing = traced(tracer, "boom")(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            failing()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("boom", 0)]
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)


def test_tracer_writes_jsonl_with_run_id(tmp_path):
    tracer = Tracer("run-7")
    with tracer.span("x", n=3):
        pass
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    line = path.read_text().strip()
    assert '"run": "run-7"' in line and '"n": 3' in line and '"parent": null' in line


class Base:
    def hello(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_patches_wrap_and_restore_module_functions_and_methods():
    module = types.ModuleType("fake")
    module.func = lambda: "f"
    original_func, original_own = module.func, Child.__dict__["own"]
    tracer = Tracer("t")
    patches = Patches()
    patches.wrap(module, "func", traced(tracer, "func"))
    patches.wrap(Child, "own", traced(tracer, "own"))
    patches.wrap(Child, "hello", traced(tracer, "hello"))  # inherited
    patches.wrap(Child, "hello", traced(tracer, "twice"))  # no double wrap
    assert module.func is not original_func
    assert (module.func(), Child().own(), Child().hello(), Base().hello()) == (
        "f", "own", "base", "base",
    )
    assert [s.name for s in tracer.spans] == ["func", "own", "hello"]
    assert len(patches.leftovers()) == 3
    patches.uninstall()
    assert module.func is original_func
    assert Child.__dict__["own"] is original_own
    assert "hello" not in Child.__dict__  # the shadowing wrapper is gone
    assert patches.leftovers() == []
    Child().hello()
    assert len(tracer.spans) == 3  # nothing traced after uninstall


def test_patches_refuse_descriptors_they_cannot_restore_faithfully():
    class WithStatic:
        @staticmethod
        def s():
            return 1

    with pytest.raises(TypeError):
        Patches().wrap(WithStatic, "s", traced(Tracer("t"), "s"))
