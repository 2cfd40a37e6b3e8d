"""Tests for scenario specs, the task registry and the result cache."""

import dataclasses
import pickle
import sys
import types

import numpy as np
import pytest

from repro.runner import (
    ResultCache,
    ScenarioSpec,
    canonical,
    content_key,
    default_cache_dir,
    register_task,
    run_spec,
)

_CALLS = []


@register_task("test.add")
def _add(a, b, seed=None):
    _CALLS.append((a, b, seed))
    return a + b + (seed or 0)


@dataclasses.dataclass(frozen=True)
class _Params:
    name: str
    value: float


class TestSpecAndRegistry:
    def test_run_spec_invokes_registered_task(self):
        spec = ScenarioSpec(task="test.add", params={"a": 1, "b": 2}, seed=10)
        assert run_spec(spec) == 13
        assert _CALLS[-1] == (1, 2, 10)

    def test_spec_run_method(self):
        assert ScenarioSpec(task="test.add", params={"a": 1, "b": 1}).run() == 2

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError, match="unknown runner task 'test.nope'; import the module"):
            run_spec(ScenarioSpec(task="test.nope"))

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError):
            register_task("test.add")(lambda seed=None: None)

    def test_builtin_tasks_are_registered(self):
        assert run_spec(
            ScenarioSpec(task="debug.echo", params={"x": 1}, seed=5)
        ) == {"seed": 5, "x": 1}


class TestContentKey:
    def test_key_is_stable(self):
        spec = ScenarioSpec(task="t", params={"a": 1, "b": (1, 2)}, seed=3)
        assert content_key(spec) == content_key(spec)

    def test_key_ignores_label(self):
        a = ScenarioSpec(task="t", params={"a": 1}, label="one")
        b = ScenarioSpec(task="t", params={"a": 1}, label="two")
        assert content_key(a) == content_key(b)

    def test_key_changes_with_params_seed_and_task(self):
        base = ScenarioSpec(task="t", params={"a": 1}, seed=0)
        assert content_key(base) != content_key(
            ScenarioSpec(task="t", params={"a": 2}, seed=0)
        )
        assert content_key(base) != content_key(
            ScenarioSpec(task="t", params={"a": 1}, seed=1)
        )
        assert content_key(base) != content_key(
            ScenarioSpec(task="u", params={"a": 1}, seed=0)
        )

    def test_key_ignores_mapping_order(self):
        a = ScenarioSpec(task="t", params={"a": 1, "b": 2})
        b = ScenarioSpec(task="t", params={"b": 2, "a": 1})
        assert content_key(a) == content_key(b)

    def test_key_handles_dataclasses_and_arrays(self):
        spec = ScenarioSpec(
            task="t",
            params={
                "config": _Params("x", 1.5),
                "values": np.arange(4.0),
                "flags": {"on": True},
            },
        )
        key = content_key(spec)
        assert len(key) == 64
        changed = ScenarioSpec(
            task="t",
            params={
                "config": _Params("x", 2.5),
                "values": np.arange(4.0),
                "flags": {"on": True},
            },
        )
        assert key != content_key(changed)

    def test_key_distinguishes_array_contents(self):
        a = ScenarioSpec(task="t", params={"v": np.array([1.0, 2.0])})
        b = ScenarioSpec(task="t", params={"v": np.array([1.0, 3.0])})
        assert content_key(a) != content_key(b)

    def test_uncanonicalizable_param_raises(self):
        with pytest.raises(TypeError):
            content_key(ScenarioSpec(task="t", params={"fn": lambda: None}))


class TestCanonicalOrdering:
    """The sort key behind sets/mappings must never fall back to str()."""

    def test_set_ordering_is_insertion_independent(self):
        members = [("a", 1), ("b", 2), ("c", 3)]
        forward = canonical(set(members))
        backward = canonical(set(reversed(members)))
        assert forward == backward

    def test_set_of_mappings_keys_identically_across_orders(self):
        a = ScenarioSpec(task="t", params={"s": frozenset([("x", 1), ("y", 2)])})
        b = ScenarioSpec(task="t", params={"s": frozenset([("y", 2), ("x", 1)])})
        assert content_key(a) == content_key(b)

    def test_unserializable_set_member_raises_not_stringifies(self):
        # Before the fix the sort key fell back to ``default=str``: two
        # distinct unkeyable members could stringify identically and the
        # canonical ordering silently depended on insertion order.  Now
        # the member itself raises.
        with pytest.raises(TypeError):
            content_key(
                ScenarioSpec(task="t", params={"s": frozenset([object()])})
            )

    def test_unserializable_mapping_key_raises(self):
        with pytest.raises(TypeError):
            canonical({object(): 1})

    def test_canonical_is_public(self):
        # The campaign layer keys whole campaigns through this function;
        # it is part of the runner's public surface (API001 otherwise
        # flags cross-module use of a private helper).
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        assert cache.get(key) == (False, None)
        cache.put(key, {"value": 3})
        hit, value = cache.get(key)
        assert hit and value == {"value": 3}
        assert key in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "b" * 64
        cache.path_for(key).write_bytes(b"not a pickle")
        hit, value = cache.get(key)
        assert not hit and value is None

    def test_entry_of_a_vanished_module_is_a_miss(self, tmp_path, monkeypatch):
        module = types.ModuleType("repro_test_vanishing_module")
        exec("class Gone:\n    pass\n", module.__dict__)
        monkeypatch.setitem(sys.modules, module.__name__, module)
        cache = ResultCache(tmp_path)
        key = "f" * 64
        cache.put(key, module.Gone())
        monkeypatch.delitem(sys.modules, module.__name__)
        assert cache.get(key) == (False, None)
        cache.put(key, 5)
        assert cache.get(key) == (True, 5)

    def test_failed_put_leaves_no_temp_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache.put("e" * 64, lambda: 1)
        assert list(tmp_path.iterdir()) == []

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("c" * 64, 1)
        cache.put("d" * 64, 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_invalid_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("../escape")

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
