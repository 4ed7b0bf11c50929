"""Tests for the determinism lint (repro.analysis.fmlint).

Every rule is exercised on at least one failing and one passing
snippet (the ISSUE's acceptance bar), plus the suppression syntax, the
path scoping, and the headline claim: the shipped tree lints clean.
"""

import os
import textwrap

import pytest

from repro.analysis import (
    CATALOG,
    DEFAULT_RULES,
    lint_paths,
    lint_source,
)

ENGINE = "src/repro/engine/snippet.py"
HW = "src/repro/hw/snippet.py"
OTHER = "src/repro/obs/snippet.py"

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src",
    "repro",
)


def codes(source, path=ENGINE):
    return [d.code for d in lint_source(textwrap.dedent(source), path)]


class TestRuleRegistry:
    def test_rules_unique_and_catalogued(self):
        rule_codes = [rule.code for rule in DEFAULT_RULES]
        assert len(rule_codes) == len(set(rule_codes))
        for code in rule_codes:
            assert code in CATALOG
            assert CATALOG[code].hint  # every rule ships a fix hint


class TestUnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        assert codes("for x in {1, 2, 3}:\n    print(x)\n") == ["FM201"]

    def test_listcomp_over_set_call_flagged(self):
        assert codes("out = [v for v in set(items)]\n") == ["FM201"]

    def test_set_algebra_flagged(self):
        src = "for x in set(a) - set(b):\n    use(x)\n"
        assert codes(src) == ["FM201"]

    def test_sorted_wrapper_passes(self):
        assert codes("for x in sorted({1, 2, 3}):\n    print(x)\n") == []

    def test_setcomp_from_set_passes(self):
        # A set built from a set stays unordered: no order is baked in.
        assert codes("out = {v for v in set(items)}\n") == []

    def test_rule_scoped_to_engine_and_hw(self):
        src = "for x in {1, 2}:\n    print(x)\n"
        assert codes(src, path=OTHER) == []
        assert codes(src, path=HW) == ["FM201"]


class TestFloatCycles:
    def test_float_literal_into_cycles_flagged(self):
        src = "stats.setop_cycles += n * 1.5\n"
        assert codes(src) == ["FM202"]

    def test_subtraction_flagged_too(self):
        assert codes("cycles -= 0.5\n") == ["FM202"]

    def test_coerced_contribution_passes(self):
        assert codes("stats.setop_cycles += int(n * 1.5)\n") == []
        assert codes("total_cycles += math.ceil(n * 0.4)\n") == []

    def test_non_cycle_target_passes(self):
        assert codes("weight += 1.5\n") == []

    def test_integer_contribution_passes(self):
        assert codes("stats.cmap_cycles += len(batch) * 2\n") == []


class TestMetricMutation:
    def test_write_on_counter_flagged(self):
        src = 'registry.counter("ops").value = 3\n'
        assert codes(src, path=OTHER) == ["FM203"]

    def test_augassign_on_gauge_flagged(self):
        src = 'metrics.gauge("depth").value += 1\n'
        assert codes(src, path=OTHER) == ["FM203"]

    def test_inc_api_passes(self):
        assert codes('registry.counter("ops").inc(3)\n', path=OTHER) == []


class TestSharedMemory:
    def test_leaked_segment_flagged(self):
        src = """
        def worker(name):
            shm = shared_memory.SharedMemory(name=name)
            view = np.frombuffer(shm.buf, dtype=np.int64)
            return view.sum()
        """
        assert codes(src, path=OTHER) == ["FM204"]

    def test_closed_segment_passes(self):
        src = """
        def worker(name):
            shm = shared_memory.SharedMemory(name=name)
            try:
                view = np.frombuffer(shm.buf, dtype=np.int64)
                return int(view.sum())
            finally:
                shm.close()
        """
        assert codes(src, path=OTHER) == []

    def test_handed_off_segment_passes(self):
        src = """
        def create(nbytes):
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            return shm
        """
        assert codes(src, path=OTHER) == []


class TestWallclock:
    @pytest.mark.parametrize(
        "call",
        [
            "time.time()",
            "random.random()",
            "datetime.datetime.now()",
            "np.random.default_rng()",
            "rng.random.shuffle(xs)",
        ],
    )
    def test_nondeterminism_in_hw_flagged(self, call):
        assert codes(f"x = {call}\n", path=HW) == ["FM205"]

    def test_timing_call_in_hw_hits_both_rules(self):
        # Wall clocks in the simulator are both nondeterminism (FM205)
        # and a profiling bypass (FM206).
        assert codes("t = time.perf_counter()\n", path=HW) == [
            "FM205",
            "FM206",
        ]

    def test_pure_math_passes(self):
        assert codes("x = math.sqrt(2.0)\n", path=HW) == []

    def test_rule_scoped_to_hw_only(self):
        # time.time() in the engine is FM206's business, not FM205's —
        # and only for the profiled clock functions.
        assert codes("t = time.time()\n", path=ENGINE) == []


class TestDirectTiming:
    @pytest.mark.parametrize(
        "call",
        [
            "time.perf_counter()",
            "time.perf_counter_ns()",
            "time.process_time()",
            "time.monotonic()",
        ],
    )
    def test_dotted_call_in_engine_flagged(self, call):
        assert codes(f"t = {call}\n", path=ENGINE) == ["FM206"]

    def test_from_import_alias_flagged(self):
        src = "from time import perf_counter\n\nt = perf_counter()\n"
        assert codes(src, path=ENGINE) == ["FM206"]

    def test_from_import_asname_flagged(self):
        src = "from time import perf_counter as clock\n\nt = clock()\n"
        assert codes(src, path=ENGINE) == ["FM206"]

    def test_bare_name_without_time_import_passes(self):
        # perf_counter from some local helper is not the time module
        assert codes("t = perf_counter()\n", path=ENGINE) == []

    def test_non_timing_time_attr_passes(self):
        assert codes("s = time.strftime('%Y')\n", path=ENGINE) == []

    def test_rule_scoped_to_engine_and_hw(self):
        # repro.obs is the sanctioned home for wall-clock reads; the
        # bench harness may also time itself.
        src = "t = time.perf_counter()\n"
        assert codes(src, path=OTHER) == []
        assert codes(src, path="src/repro/bench/harness.py") == []

    def test_line_disable(self):
        src = "t = time.perf_counter()  # fmlint: disable=FM206\n"
        assert codes(src, path=ENGINE) == []


class TestProcessConstruction:
    POOL = "src/repro/engine/pool.py"

    @pytest.mark.parametrize(
        "call",
        [
            "mp.Process(target=f)",
            "ctx.Process(target=f, daemon=True)",
            "multiprocessing.Pool(4)",
            "ctx.Pool(workers)",
        ],
    )
    def test_dotted_construction_in_engine_flagged(self, call):
        assert codes(f"p = {call}\n", path=ENGINE) == ["FM207"]

    def test_from_import_flagged(self):
        src = "from multiprocessing import Process\n\np = Process(target=f)\n"
        assert codes(src, path=ENGINE) == ["FM207"]

    def test_from_import_asname_flagged(self):
        src = (
            "from multiprocessing.context import Process as Worker\n\n"
            "p = Worker(target=f)\n"
        )
        assert codes(src, path=ENGINE) == ["FM207"]

    def test_bare_name_without_mp_import_passes(self):
        # A local class named Pool is not multiprocessing's.
        assert codes("p = Pool(4)\n", path=ENGINE) == []

    def test_engine_pool_module_exempt(self):
        src = "p = ctx.Process(target=f)\n"
        assert codes(src, path=self.POOL) == []
        assert codes(src, path=ENGINE) == ["FM207"]

    def test_rule_covers_the_whole_package(self):
        src = "p = ctx.Process(target=f)\n"
        for path in (
            OTHER, "src/repro/hw/parallel_sim.py",
            "src/repro/bench/harness.py",
        ):
            assert codes(src, path=path) == ["FM207"], path

    def test_line_disable(self):
        src = "p = ctx.Process(target=f)  # fmlint: disable=FM207\n"
        assert codes(src, path=ENGINE) == []


class TestElementwiseLoops:
    KERNELS = "src/repro/engine/kernels.py"

    def test_for_over_ndarray_param_flagged(self):
        src = """
        import numpy as np

        def f(a: np.ndarray) -> int:
            total = 0
            for x in a:
                total += int(x)
            return total
        """
        assert codes(src, path=self.KERNELS) == ["FM208"]

    def test_range_len_flagged(self):
        src = """
        import numpy as np

        def f(a: np.ndarray) -> int:
            total = 0
            for i in range(len(a)):
                total += int(a[i])
            return total
        """
        assert codes(src, path=self.KERNELS) == ["FM208"]

    def test_slice_and_enumerate_flagged(self):
        src = """
        import numpy as np

        def f(a: np.ndarray):
            for x in a[1:]:
                yield x
            for i, x in enumerate(a):
                yield i, x
        """
        assert codes(src, path=self.KERNELS) == ["FM208", "FM208"]

    def test_comprehension_flagged(self):
        src = """
        import numpy as np

        def f(a: np.ndarray):
            return [int(x) for x in a]
        """
        assert codes(src, path=self.KERNELS) == ["FM208"]

    def test_loop_over_sequence_of_arrays_passes(self):
        # A loop over a *list of arrays* is per-array, not
        # per-element; only plain ndarray annotations are policed.
        src = """
        import numpy as np
        from typing import Sequence

        def f(arrays: Sequence[np.ndarray]):
            out = arrays[0]
            for other in arrays[1:]:
                out = out & other
            return out
        """
        assert codes(src, path=self.KERNELS) == []

    def test_vectorized_body_passes(self):
        src = """
        import numpy as np

        def f(a: np.ndarray, b: np.ndarray) -> int:
            return int((a[:, None] == b).sum())
        """
        assert codes(src, path=self.KERNELS) == []

    def test_rule_scoped_to_kernels(self):
        src = """
        import numpy as np

        def f(a: np.ndarray) -> int:
            total = 0
            for x in a:
                total += int(x)
            return total
        """
        assert codes(src, path=ENGINE) == []
        assert codes(src, path=OTHER) == []

    def test_documented_scalar_fallback_disable(self):
        src = """
        import numpy as np

        def f(a: np.ndarray) -> int:
            total = 0
            for x in a:  # fmlint: disable=FM208
                total += int(x)
            return total
        """
        assert codes(src, path=self.KERNELS) == []


class TestSuppression:
    def test_line_disable_specific_code(self):
        src = "for x in {1, 2}:  # fmlint: disable=FM201\n    print(x)\n"
        assert codes(src) == []

    def test_line_disable_wrong_code_still_fires(self):
        src = "for x in {1, 2}:  # fmlint: disable=FM205\n    print(x)\n"
        assert codes(src) == ["FM201"]

    def test_bare_disable_suppresses_all(self):
        src = "for x in {1, 2}:  # fmlint: disable\n    print(x)\n"
        assert codes(src) == []

    def test_skip_file(self):
        src = "# fmlint: skip-file\nfor x in {1, 2}:\n    print(x)\n"
        assert codes(src) == []

    def test_skip_file_must_be_near_top(self):
        lines = ["pass"] * 12 + [
            "# fmlint: skip-file",
            "for x in {1, 2}:",
            "    print(x)",
        ]
        assert codes("\n".join(lines) + "\n") == ["FM201"]


class TestDriver:
    def test_syntax_error_reported_as_fm200(self, tmp_path):
        bad = tmp_path / "engine" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def nope(:\n")
        rep = lint_paths([str(tmp_path)])
        assert rep.codes() == ("FM200",)
        assert not rep.ok

    def test_findings_carry_path_and_line(self, tmp_path):
        mod = tmp_path / "hw" / "mod.py"
        mod.parent.mkdir()
        mod.write_text("import time\n\nt = time.time()\n")
        rep = lint_paths([str(tmp_path)])
        [diag] = rep.findings
        assert diag.code == "FM205"
        assert diag.location.endswith("mod.py:3")

    def test_shipped_tree_lints_clean(self):
        # The headline guarantee: bit-identical reports rest on these
        # conventions, and the tree as shipped satisfies all of them.
        rep = lint_paths([SRC_ROOT])
        assert rep.findings == [], rep.render()
        assert rep.data["files"] > 50
