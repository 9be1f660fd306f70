"""Self-time arithmetic and wrapper installation / removal."""

import sys
import types

import pytest

from spans import LayerTracer


class FakeClock:
    """A clock advanced by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    outer = tracer.enter("outer")
    clock.now += 1.0
    inner = tracer.enter("inner")
    clock.now += 2.0
    deepest = tracer.enter("deepest")
    clock.now += 4.0
    tracer.exit(deepest)
    tracer.exit(inner)
    clock.now += 0.5
    second = tracer.enter("inner")
    clock.now += 3.0
    tracer.exit(second)
    tracer.exit(outer)

    stats = tracer.stats
    assert stats["outer"].calls == 1
    assert stats["outer"].total_s == pytest.approx(10.5)
    assert stats["outer"].self_s == pytest.approx(1.5)
    assert stats["inner"].calls == 2
    assert stats["inner"].total_s == pytest.approx(9.0)
    assert stats["inner"].self_s == pytest.approx(5.0)
    assert stats["deepest"].self_s == pytest.approx(4.0)
    # Self times partition the outermost span exactly.
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.5)
    assert tracer.stack == []


def test_recursive_span_counts_each_level_once():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    a = tracer.enter("f")
    clock.now += 1.0
    b = tracer.enter("f")
    clock.now += 2.0
    tracer.exit(b)
    tracer.exit(a)
    assert tracer.stats["f"].calls == 2
    assert tracer.stats["f"].self_s == pytest.approx(3.0)
    assert tracer.stats["f"].total_s == pytest.approx(5.0)


class Base:
    def work(self, x):
        return x + 1

    def outer(self, x):
        return self.work(x) * 2


class Child(Base):
    pass


def test_wrap_attr_times_calls_and_restores_class_methods():
    original = Base.__dict__["work"]
    with LayerTracer() as tracer:
        seen = []
        tracer.wrap_attr(Base, "work", "work", lambda a, k, r: seen.append(r))
        tracer.wrap_attr(Base, "outer", "outer")
        assert Child().outer(3) == 8
        assert seen == [4]
        assert tracer.stats["work"].calls == 1
        assert tracer.stats["outer"].calls == 1
        assert tracer.stats["outer"].self_s <= tracer.stats["outer"].total_s
    assert Base.__dict__["work"] is original
    assert Base().work(1) == 2


def test_wrap_attr_on_inherited_attribute_deletes_the_shadow():
    tracer = LayerTracer()
    tracer.wrap_attr(Child, "work", "child.work")
    assert "work" in vars(Child)
    assert Child().work(1) == 2
    tracer.restore()
    assert "work" not in vars(Child)
    assert Child.work is Base.work


def test_wrap_attr_dynamic_name():
    with LayerTracer() as tracer:
        tracer.wrap_attr(Base, "work", lambda args, kwargs: f"work.{args[1]}")
        Base().work(7)
    assert set(tracer.stats) == {"work.7"}


def test_wrap_function_patches_every_binding_and_restores(monkeypatch):
    def helper(x):
        return x * 3

    pkg = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.defining")
    importer = types.ModuleType("fakepkg.importer")
    outsider = types.ModuleType("otherpkg")
    defining.helper = helper
    importer.helper = helper  # as `from .defining import helper` binds it
    importer.alias = helper
    outsider.helper = helper
    for name, module in [
        ("fakepkg", pkg),
        ("fakepkg.defining", defining),
        ("fakepkg.importer", importer),
        ("otherpkg", outsider),
    ]:
        monkeypatch.setitem(sys.modules, name, module)

    tracer = LayerTracer()
    assert tracer.wrap_function(helper, "helper", package="fakepkg") == 3
    assert importer.helper(2) == 6 and importer.alias(1) == 3
    assert defining.helper is not helper
    assert outsider.helper is helper  # outside the package: untouched
    assert tracer.stats["helper"].calls == 2
    tracer.restore()
    assert defining.helper is helper
    assert importer.helper is helper and importer.alias is helper


def test_wrap_function_without_binding_raises(monkeypatch):
    monkeypatch.setitem(sys.modules, "emptypkg", types.ModuleType("emptypkg"))
    with pytest.raises(LookupError):
        LayerTracer().wrap_function(len, "len", package="emptypkg")


def test_exception_still_closes_span():
    class Boom:
        def go(self):
            raise RuntimeError("boom")

    with LayerTracer() as tracer:
        tracer.wrap_attr(Boom, "go", "go")
        with pytest.raises(RuntimeError):
            Boom().go()
        assert tracer.stack == []
        assert tracer.stats["go"].calls == 1


def test_paused_calls_pass_through_unrecorded():
    with LayerTracer() as tracer:
        tracer.wrap_attr(Base, "work", "work")
        with tracer.paused():
            assert Base().work(1) == 2
        assert "work" not in tracer.stats
        Base().work(1)
        assert tracer.stats["work"].calls == 1
