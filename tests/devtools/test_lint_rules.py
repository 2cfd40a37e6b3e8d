"""Per-rule fixture tests: each rule fires on the bad form, stays silent
on the good form, and honours inline suppressions."""

import textwrap

import pytest

from repro.devtools.lint.engine import lint_paths


def lint_snippet(tmp_path, code, select=None, name="snippet.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(code))
    return lint_paths([path], select=select)


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestDet001UnseededRandomness:
    def test_module_level_random_call_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            import random

            def jitter():
                return random.random()
            """,
            select=["DET001"],
        )
        assert codes(diags) == ["DET001"]
        assert diags[0].line == 5

    def test_np_random_global_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def draw():
                return np.random.rand(3)
            """,
            select=["DET001"],
        )
        assert codes(diags) == ["DET001"]
        assert "numpy.random.rand" in diags[0].message

    def test_from_import_alias_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from random import randint

            def roll():
                return randint(1, 6)
            """,
            select=["DET001"],
        )
        assert codes(diags) == ["DET001"]

    def test_unseeded_default_rng_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def draw():
                return np.random.default_rng().random()
            """,
            select=["DET001"],
        )
        assert codes(diags) == ["DET001"]
        assert "without a seed" in diags[0].message

    def test_seeded_generators_are_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            import random

            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                local = random.Random(seed)
                return rng.random() + local.random()
            """,
            select=["DET001"],
        )
        assert diags == []

    def test_instance_named_random_is_clean(self, tmp_path):
        # No ``import random``: a parameter named random is someone's rng.
        diags = lint_snippet(
            tmp_path,
            """
            def draw(random):
                return random.random()
            """,
            select=["DET001"],
        )
        assert diags == []

    def test_suppression_honoured(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            import random

            def jitter():
                return random.random()  # repro-lint: disable=DET001
            """,
            select=["DET001"],
        )
        assert diags == []


class TestDet002WallClock:
    def test_time_time_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            select=["DET002"],
        )
        assert codes(diags) == ["DET002"]
        assert diags[0].line == 5

    def test_datetime_now_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            select=["DET002"],
        )
        assert codes(diags) == ["DET002"]

    def test_from_import_time_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from time import perf_counter

            def stamp():
                return perf_counter()
            """,
            select=["DET002"],
        )
        assert codes(diags) == ["DET002"]

    def test_simulated_clock_is_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def advance(scheduler):
                return scheduler.now() + 1.0
            """,
            select=["DET002"],
        )
        assert diags == []

    def test_suppression_honoured(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                # benchmark harness timing, not simulated time
                # repro-lint: disable=DET002
                return time.time()
            """,
            select=["DET002"],
        )
        assert diags == []


class TestDet003UnorderedIteration:
    def test_for_over_set_literal_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def schedule(events):
                out = []
                for e in {1, 2, 3}:
                    out.append(e)
                return out
            """,
            select=["DET003"],
        )
        assert codes(diags) == ["DET003"]
        assert diags[0].line == 4

    def test_for_over_set_call_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def assemble(units):
                for u in set(units):
                    yield u
            """,
            select=["DET003"],
        )
        assert codes(diags) == ["DET003"]

    def test_list_of_set_bound_name_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def assemble(units):
                pending = set(units)
                return list(pending)
            """,
            select=["DET003"],
        )
        assert codes(diags) == ["DET003"]

    def test_comprehension_over_keys_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def assemble(cells):
                return [cells[k] for k in cells.keys()]
            """,
            select=["DET003"],
        )
        assert codes(diags) == ["DET003"]

    def test_set_union_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def merge(a, b):
                for key in set(a) | set(b):
                    yield key
            """,
            select=["DET003"],
        )
        assert codes(diags) == ["DET003"]

    def test_sorted_set_is_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def merge(a, b):
                for key in sorted(set(a) | set(b)):
                    yield key
            """,
            select=["DET003"],
        )
        assert diags == []

    def test_membership_test_is_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def filter_units(units, treated):
                treated_set = set(treated)
                return [u for u in units if u in treated_set]
            """,
            select=["DET003"],
        )
        assert diags == []

    def test_dict_direct_iteration_is_clean(self, tmp_path):
        # Plain ``for k in d`` follows insertion order deliberately.
        diags = lint_snippet(
            tmp_path,
            """
            def assemble(cells):
                return [cells[k] for k in cells]
            """,
            select=["DET003"],
        )
        assert diags == []

    def test_rebound_name_is_clean(self, tmp_path):
        # A name reassigned to an ordered value is no longer set-like.
        diags = lint_snippet(
            tmp_path,
            """
            def assemble(units):
                pending = set(units)
                pending = sorted(pending)
                return list(pending)
            """,
            select=["DET003"],
        )
        assert diags == []

    def test_suppression_honoured(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def assemble(units):
                for u in set(units):  # repro-lint: disable=DET003
                    yield u
            """,
            select=["DET003"],
        )
        assert diags == []


class TestKey001FrozenSpec:
    def test_unfrozen_spec_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class SweepSpec:
                n_units: int = 4
            """,
            select=["KEY001"],
        )
        assert codes(diags) == ["KEY001"]
        assert "SweepSpec" in diags[0].message

    def test_frozen_false_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=False)
            class LabConfig:
                n_units: int = 4
            """,
            select=["KEY001"],
        )
        assert codes(diags) == ["KEY001"]

    def test_mutable_default_factory_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class SweepConfig:
                knobs: dict = field(default_factory=dict)
            """,
            select=["KEY001"],
        )
        assert codes(diags) == ["KEY001"]
        assert "mutable" in diags[0].message

    def test_mutable_literal_default_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SweepConfig:
                knobs: list = []
            """,
            select=["KEY001"],
        )
        assert codes(diags) == ["KEY001"]

    def test_frozen_immutable_spec_is_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class SweepSpec:
                n_units: int = 4
                allocations: tuple = field(default_factory=tuple)
            """,
            select=["KEY001"],
        )
        assert diags == []

    def test_non_spec_dataclass_is_ignored(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass
            class ResultAccumulator:
                cells: dict = field(default_factory=dict)
            """,
            select=["KEY001"],
        )
        assert diags == []

    def test_suppression_honoured(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class SweepSpec:
                knobs: dict = field(default_factory=dict)  # repro-lint: disable=KEY001
            """,
            select=["KEY001"],
        )
        assert diags == []


class TestKey002InertDefault:
    def test_defaultless_new_parameter_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from repro.runner.spec import register_task

            @register_task("demo.task")
            def demo(flows, new_knob, seed=None):
                return (flows, new_knob, seed)
            """,
            select=["KEY002"],
        )
        # Neither parameter is in the (empty) baseline for demo.task.
        assert codes(diags) == ["KEY002", "KEY002"]
        assert "inert at their default" in diags[0].message

    def test_missing_seed_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from repro.runner.spec import register_task

            @register_task("demo.no_seed")
            def demo(flows=()):
                return flows
            """,
            select=["KEY002"],
        )
        assert codes(diags) == ["KEY002"]
        assert "seed" in diags[0].message

    def test_defaulted_knobs_are_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from repro.runner.spec import register_task

            @register_task("demo.task")
            def demo(flows=(), new_knob=False, seed=None):
                return (flows, new_knob, seed)
            """,
            select=["KEY002"],
        )
        assert diags == []

    def test_baseline_parameters_are_clean(self, tmp_path):
        # netsim.packet_arm's recorded baseline allows its original
        # required parameters to stay default-less.
        diags = lint_snippet(
            tmp_path,
            """
            from repro.runner.spec import register_task

            @register_task("netsim.packet_arm")
            def packet_arm(flows, capacity_mbps, base_rtt_ms, buffer_bdp,
                           duration_s, warmup_s, seed=None):
                return None
            """,
            select=["KEY002"],
        )
        assert diags == []

    def test_undecorated_function_is_ignored(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def helper(required_everywhere):
                return required_everywhere
            """,
            select=["KEY002"],
        )
        assert diags == []

    def test_suppression_honoured(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from repro.runner.spec import register_task

            @register_task("demo.task")  # repro-lint: disable=KEY002
            def demo(flows, seed=None):
                return flows
            """,
            select=["KEY002"],
        )
        # The decorator line anchors the seed check; the parameter check
        # anchors at the parameter itself, so suppress both lines.
        assert all(d.line != 4 for d in diags)

    def test_parameter_suppression_line(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from repro.runner.spec import register_task

            @register_task("demo.task")
            def demo(
                flows,  # repro-lint: disable=KEY002
                seed=None,
            ):
                return flows
            """,
            select=["KEY002"],
        )
        assert diags == []


class TestApi001PrivateAccess:
    def test_private_import_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from repro.experiments.lab_common import _sweep_scale
            """,
            select=["API001"],
        )
        assert codes(diags) == ["API001"]
        assert "_sweep_scale" in diags[0].message

    def test_relative_private_import_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from ._helpers import _inner
            """,
            select=["API001"],
        )
        assert codes(diags) == ["API001"]

    def test_foreign_private_attribute_read_fires(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def peek(scheduler):
                return scheduler._heap[0]
            """,
            select=["API001"],
        )
        assert codes(diags) == ["API001"]
        assert "_heap" in diags[0].message

    def test_self_access_is_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            class Engine:
                def __init__(self):
                    self._heap = []

                def peek(self):
                    return self._heap[0]
            """,
            select=["API001"],
        )
        assert diags == []

    def test_same_module_peer_access_is_clean(self, tmp_path):
        # merge(self, other) reading other's privates is conventional
        # when the module owns the attribute.
        diags = lint_snippet(
            tmp_path,
            """
            class Stats:
                def __init__(self):
                    self._cells = {}

                def merge(self, other):
                    merged = Stats()
                    merged._cells = {**self._cells, **other._cells}
                    return merged
            """,
            select=["API001"],
        )
        assert diags == []

    def test_dunder_access_is_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def name_of(obj):
                return type(obj).__name__
            """,
            select=["API001"],
        )
        assert diags == []

    def test_public_import_is_clean(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            from repro.experiments.lab_common import sweep_scale
            """,
            select=["API001"],
        )
        assert diags == []

    def test_suppression_honoured(self, tmp_path):
        diags = lint_snippet(
            tmp_path,
            """
            def peek(scheduler):
                return scheduler._heap[0]  # repro-lint: disable=API001
            """,
            select=["API001"],
        )
        assert diags == []


def lint_module(tmp_path, module, code):
    """Lint ``code`` as module ``module`` of a throwaway package tree.

    LAY001 needs the file's dotted module name, which the walker derives
    from the ``__init__.py`` chain.
    """
    *packages, name = module.split(".")
    directory = tmp_path
    for package in packages:
        directory = directory / package
        directory.mkdir(exist_ok=True)
        (directory / "__init__.py").touch()
    path = directory / f"{name}.py"
    path.write_text(textwrap.dedent(code))
    return lint_paths([path], select=["LAY001"])


class TestLay001LayerImports:
    def test_runner_importing_experiments_fires(self, tmp_path):
        diags = lint_module(
            tmp_path,
            "repro.runner.executor",
            """
            from repro.experiments.figures import figures
            """,
        )
        assert codes(diags) == ["LAY001"]
        assert "repro.experiments.figures" in diags[0].message

    def test_function_level_and_relative_imports_fire(self, tmp_path):
        diags = lint_module(
            tmp_path,
            "repro.runner.spec",
            """
            def cells():
                from ..experiments import lab_cc
                from repro import campaign
                import repro.api
                return lab_cc, campaign, repro.api
            """,
        )
        assert codes(diags) == ["LAY001", "LAY001", "LAY001"]
        assert [d.line for d in diags] == [3, 4, 5]

    def test_experiments_importing_cli_fires(self, tmp_path):
        diags = lint_module(
            tmp_path,
            "repro.experiments.lab_cc",
            """
            from repro.cli import main
            """,
        )
        assert codes(diags) == ["LAY001"]

    def test_runner_importing_substrates_fires(self, tmp_path):
        # The runner sits below the workload and the simulators it
        # executes, so it may not wrap their functions as tasks.
        diags = lint_module(
            tmp_path,
            "repro.runner.executor",
            """
            def packet_arm(flows, seed=None):
                from repro.netsim.packet.simulation import simulate
                return simulate(flows, seed=seed)

            def aa_table(config, days, seed=None):
                from repro.workload.netflix import PairedLinkWorkload
                return PairedLinkWorkload(config).generate_aa_test(days)
            """,
        )
        assert codes(diags) == ["LAY001", "LAY001"]
        assert "repro.netsim.packet.simulation" in diags[0].message
        assert "repro.workload.netflix" in diags[1].message

    def test_obs_importing_runner_at_function_level_fires(self, tmp_path):
        diags = lint_module(
            tmp_path,
            "repro.obs.trace",
            """
            def observe_spec(spec):
                from repro.runner.spec import get_task
                return get_task(spec.task)
            """,
        )
        assert codes(diags) == ["LAY001"]
        assert "repro.runner sits above repro.obs" in diags[0].message

    def test_allowed_importers_are_clean(self, tmp_path):
        for module in ("repro.experiments.lab_cc", "repro.campaign.spec", "repro.api"):
            diags = lint_module(
                tmp_path,
                module,
                """
                from repro.experiments.figures import figures
                from repro.runner.spec import ScenarioSpec
                """,
            )
            assert diags == [], module
        diags = lint_module(tmp_path, "repro.cli", "from repro.api import figure_spec\n")
        assert diags == []

    def test_downward_imports_are_clean(self, tmp_path):
        diags = lint_module(
            tmp_path,
            "repro.netsim.packet.sweep",
            """
            from repro.runner.executor import ParallelExecutor
            from repro.obs.probe import ProbeConfig

            def arm():
                from repro.runner.spec import register_task
                return register_task
            """,
        )
        assert diags == []
        diags = lint_module(
            tmp_path,
            "repro.netsim.traffic.demand",
            """
            from repro.workload.demand import DiurnalDemandModel
            """,
        )
        assert diags == []

    def test_suppression_honoured(self, tmp_path):
        diags = lint_module(
            tmp_path,
            "repro.runner.executor",
            """
            from repro.experiments import figures  # repro-lint: disable=LAY001
            """,
        )
        assert diags == []

    def test_file_outside_a_package_is_not_flagged(self, tmp_path):
        diags = lint_snippet(
            tmp_path, "from repro.experiments import figures\n", select=["LAY001"]
        )
        assert diags == []

    def test_unlisted_package_falls_to_the_bottom_layer(self, tmp_path):
        diags = lint_module(
            tmp_path,
            "repro.newpkg.mod",
            """
            from repro.runner.spec import ScenarioSpec
            """,
        )
        assert codes(diags) == ["LAY001"]

    def test_every_package_and_top_level_module_has_a_layer(self):
        # A new package must be placed in LAYERS explicitly; an entry for a
        # module that no longer exists is stale.
        from pathlib import Path

        import repro
        from repro.devtools.lint.config import LAYERS

        root = Path(repro.__file__).parent
        modules = {f"repro.{path.stem}" for path in root.glob("*.py") if path.stem != "__init__"}
        packages = {f"repro.{path.parent.name}" for path in root.glob("*/__init__.py")}
        listed = [prefix for layer in LAYERS for prefix in layer]
        assert len(listed) == len(set(listed))
        assert set(listed) == modules | packages | {"repro"}


class TestRuleMetadata:
    def test_every_rule_has_code_summary_and_scope(self):
        from repro.devtools.lint.base import RULES

        assert set(RULES) == {
            "DET001", "DET002", "DET003", "KEY001", "KEY002", "API001", "LAY001",
        }
        for cls in RULES.values():
            assert cls.code and cls.summary
            assert cls.scopes, f"{cls.code} should be explicitly scoped"

    def test_unknown_select_raises(self, tmp_path):
        (tmp_path / "empty.py").write_text("")
        with pytest.raises(KeyError):
            lint_paths([tmp_path], select=["NOPE001"])
