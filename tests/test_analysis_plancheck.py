"""Tests for the static plan verifier (repro.analysis.plancheck).

Two halves mirror the verifier's contract:

* **acceptance** — every plan the compiler can produce (all library
  patterns, both semantics, every enumerable matching order, the motif
  multi-plans) passes with zero findings;
* **mutation** — each documented FM1xx code fires on a minimal
  hand-broken plan, with the exact code(s) pinned.

The sym-stripped 4-cycle is the same bug PR 3's fuzzer had to find
*dynamically* (and shrink to the 4-vertex cycle); here it is rejected
in milliseconds without running anything.
"""

import copy
import os
from dataclasses import replace

import pytest

from repro.analysis import check_multi_plan, check_plan, plan_shape
from repro.compiler import (
    PlanNode,
    VertexStep,
    compile_motifs,
    compile_pattern,
    enumerate_matching_orders,
)
from repro.hw.config import FlexMinerConfig
from repro.patterns import (
    PATTERN_NAMES,
    diamond,
    four_cycle,
    from_name,
    k_clique,
    path,
    triangle,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


# ----------------------------------------------------------------------
# Acceptance: everything the compiler emits is statically clean
# ----------------------------------------------------------------------
class TestLibraryAcceptance:
    @pytest.mark.parametrize("name", sorted(PATTERN_NAMES))
    @pytest.mark.parametrize("induced", [False, True])
    def test_library_plan_clean(self, name, induced):
        plan = compile_pattern(from_name(name), induced=induced)
        rep = check_plan(plan, config=FlexMinerConfig())
        assert rep.findings == [], rep.render()

    def test_every_matching_order_clean(self):
        # The fuzzer draws random orders from this enumeration, so all
        # of them — not just the compiler's pick — must verify.
        for name in sorted(PATTERN_NAMES):
            pattern = from_name(name)
            if pattern.num_vertices > 4:
                continue  # keep the k! sweep cheap
            for induced in (False, True):
                for order in enumerate_matching_orders(pattern):
                    plan = compile_pattern(
                        pattern, induced=induced, matching_order=order
                    )
                    rep = check_plan(plan)
                    assert rep.findings == [], (name, order, rep.render())

    @pytest.mark.parametrize("k", [3, 4])
    def test_motif_multiplan_clean(self, k):
        rep = check_multi_plan(compile_motifs(k))
        assert rep.findings == [], rep.render()

    def test_labeled_plan_clean(self):
        plan = compile_pattern(triangle().with_labels([0, 0, 1]))
        assert check_plan(plan).findings == []

    def test_shape_summary_attached(self):
        plan = compile_pattern(four_cycle())
        rep = check_plan(plan)
        shape = rep.data["shape"]
        assert shape == plan_shape(plan)
        assert shape["levels"] == 4
        assert shape["symmetry_bounds"] == len(plan.symmetry_conditions)

    def test_estimate_attached_with_graph(self):
        from repro.graph import erdos_renyi

        graph = erdos_renyi(50, 0.2, seed=0)
        rep = check_plan(compile_pattern(triangle()), graph=graph)
        levels = rep.data["estimate"]
        assert [lv["depth"] for lv in levels] == [0, 1, 2]
        assert all(lv["nodes"] >= 0 for lv in levels)


# ----------------------------------------------------------------------
# Mutations: every code fires on its minimal broken plan
# ----------------------------------------------------------------------
class TestStructureMutations:
    def test_fm100_non_permutation_order(self):
        plan = compile_pattern(four_cycle())
        broken = replace(plan)
        object.__setattr__(broken, "matching_order", (0, 0, 1, 2))
        rep = check_plan(broken)
        assert rep.codes() == ("FM100",)  # deeper passes short-circuit

    def test_fm101_fm102_reversed_path_order(self):
        plan = compile_pattern(path(4))
        broken = replace(
            plan, matching_order=tuple(reversed(plan.matching_order))
        )
        assert check_plan(broken).codes() == ("FM101", "FM102")

    def test_fm103_induced_exclusions_dropped(self):
        plan = compile_pattern(four_cycle(), induced=True)
        steps = list(plan.steps)
        idx = next(i for i, s in enumerate(steps) if s.disconnected)
        steps[idx] = replace(
            steps[idx], disconnected=(), extra_disconnected=()
        )
        broken = replace(plan, steps=tuple(steps))
        assert check_plan(broken).codes() == ("FM103",)

    def test_fm104_wrong_step_label(self):
        plan = compile_pattern(triangle().with_labels([0, 0, 1]))
        steps = list(plan.steps)
        steps[0] = replace(steps[0], label=(steps[0].label or 0) + 1)
        broken = replace(plan, steps=tuple(steps))
        assert check_plan(broken).codes() == ("FM104",)


class TestSymmetryMutations:
    def test_fm110_stripped_bounds_double_count(self):
        """PR 3's injected bug, caught statically.

        test_verify_differential.py strips the same bounds from a
        backend and needs a data graph + the oracle to notice; the
        group-theoretic check rejects the plan outright.
        """
        plan = compile_pattern(four_cycle())
        broken = replace(
            plan,
            steps=tuple(replace(s, upper_bounds=()) for s in plan.steps),
            symmetry_conditions=(),
        )
        rep = check_plan(broken)
        assert rep.codes() == ("FM110",)
        assert not rep.ok
        [diag] = rep.errors
        assert "automorphism" in diag.title

    def test_fm111_fm112_extra_bound_excludes_embeddings(self):
        plan = compile_pattern(diamond(), use_orientation=False)
        target = plan.steps[1]
        assert not target.upper_bounds
        broken = replace(
            plan,
            steps=(plan.steps[0], replace(target, upper_bounds=(0,)))
            + plan.steps[2:],
        )
        # FM112: declared conditions no longer match the step bounds;
        # FM111: the extra bound kills legitimate id-orderings.
        assert check_plan(broken).codes() == ("FM112", "FM111")

    def test_fm112_alone_when_declaration_drifts(self):
        plan = compile_pattern(four_cycle())
        broken = replace(plan, symmetry_conditions=())
        rep = check_plan(broken)
        assert rep.codes() == ("FM112",)

    def test_fm113_skip_warning_on_large_pattern(self):
        rep = check_plan(compile_pattern(path(10)))
        assert rep.has("FM113")
        assert rep.ok  # a skip is a warning, not a rejection

    def test_fm130_fm131_bogus_orientation(self):
        plan = compile_pattern(four_cycle())
        broken = replace(plan, oriented=True)
        assert check_plan(broken).codes() == ("FM130", "FM131")

    def test_oriented_clique_plan_is_legal(self):
        plan = compile_pattern(k_clique(4))
        assert plan.oriented  # compiler picks orientation for cliques
        assert check_plan(plan).findings == []


class TestInjectivityMutations:
    def test_fm120_inconsistent_skip_flag(self):
        plan = compile_pattern(four_cycle())
        broken = replace(
            plan, steps=tuple(copy.deepcopy(s) for s in plan.steps)
        )
        step = broken.steps[1]
        object.__setattr__(
            step, "covers_all_ancestors", not step.covers_all_ancestors
        )
        assert check_plan(broken).codes() == ("FM120",)


class TestFrontierMutations:
    def test_fm140_base_not_memoized(self):
        plan = compile_pattern(k_clique(4), use_orientation=False)
        user = next(s for s in plan.steps if s.base_step is not None)
        broken = replace(
            plan,
            steps=tuple(
                replace(s, memoize_frontier=False)
                if s.depth == user.base_step
                else s
                for s in plan.steps
            ),
        )
        assert check_plan(broken).codes() == ("FM140",)

    def test_fm141_remainder_mismatch(self):
        plan = compile_pattern(k_clique(4), use_orientation=False)
        user = next(
            s
            for s in plan.steps
            if s.base_step is not None and s.extra_connected
        )
        broken = replace(
            plan,
            steps=tuple(
                replace(s, extra_connected=())
                if s.depth == user.depth
                else s
                for s in plan.steps
            ),
        )
        assert check_plan(broken).codes() == ("FM141",)

    def test_fm142_memoized_never_reused_warns(self):
        plan = compile_pattern(path(4))
        broken = replace(
            plan,
            steps=tuple(
                replace(s, memoize_frontier=True) if s.depth == 1 else s
                for s in plan.steps
            ),
        )
        rep = check_plan(broken)
        assert rep.codes() == ("FM142",)
        assert rep.ok  # warning only


class TestCmapMutations:
    def test_fm150_insert_never_consumed_warns(self):
        plan = compile_pattern(path(4))
        assert plan.cmap_insert_depths == ()  # compiler already prunes
        rep = check_plan(replace(plan, cmap_insert_depths=(1,)))
        assert rep.codes() == ("FM150",)
        assert rep.ok

    def test_fm151_nonexistent_level(self):
        plan = compile_pattern(four_cycle())
        broken = replace(
            plan, cmap_insert_depths=plan.cmap_insert_depths + (7,)
        )
        assert check_plan(broken).codes() == ("FM151",)

    def test_fm151_filter_not_earlier(self):
        plan = compile_pattern(four_cycle())
        broken = replace(
            plan, cmap_insert_filter={**plan.cmap_insert_filter, 1: 2}
        )
        assert check_plan(broken).codes() == ("FM151",)

    def test_fm152_depth_beyond_value_width(self):
        plan = compile_pattern(path(10))
        rep = check_plan(
            replace(plan, cmap_insert_depths=(8,)),
            config=FlexMinerConfig(),
        )
        assert rep.has("FM152")
        assert rep.ok  # overflow-to-SIU is slow, not wrong

    def test_fm153_hints_without_cmap(self):
        plan = compile_pattern(four_cycle())
        rep = check_plan(plan, config=FlexMinerConfig(cmap_bytes=0))
        assert rep.codes() == ("FM153",)
        assert rep.ok


class TestMultiPlanMutations:
    @staticmethod
    def _some_leaf(node):
        if node.pattern_index is not None:
            return node
        for child in node.children:
            found = TestMultiPlanMutations._some_leaf(child)
            if found is not None:
                return found
        return None

    def test_fm121_counting_node_with_children(self):
        plan = copy.deepcopy(compile_motifs(3))
        leaf = self._some_leaf(plan.root)
        leaf.children.append(
            PlanNode(step=VertexStep(depth=leaf.depth + 1, extender=0))
        )
        assert check_multi_plan(plan).codes() == ("FM121",)

    def test_fm160_pattern_never_completes(self):
        plan = copy.deepcopy(compile_motifs(3))
        self._some_leaf(plan.root).pattern_index = None
        assert check_multi_plan(plan).codes() == ("FM160",)

    def test_fm161_depth_discontinuity(self):
        plan = copy.deepcopy(compile_motifs(3))
        node = plan.root.children[0]
        assert node.children
        node.children[0].step = replace(node.children[0].step, depth=3)
        assert check_multi_plan(plan).codes() == ("FM161",)


# ----------------------------------------------------------------------
# The differential bridge: static-pass ⇒ oracle-pass
# ----------------------------------------------------------------------
class TestStaticDynamicInvariant:
    def test_corpus_plans_statically_clean(self):
        from repro.compiler import MultiPlan
        from repro.verify import load_corpus

        cases = load_corpus(CORPUS_DIR)
        assert cases
        for path_, case in cases:
            plan = case.compile()
            rep = (
                check_multi_plan(plan)
                if isinstance(plan, MultiPlan)
                else check_plan(plan)
            )
            assert rep.ok, f"{path_}: {rep.render()}"

    def test_fuzz_static_pass_implies_oracle_pass(self):
        # run_case embeds the invariant: a plan the verifier rejects
        # must also mismatch dynamically, and vice versa a statically
        # clean plan must match the oracle.  200 fresh cases, so a
        # false-positive static rule shows up as a static-dynamic
        # mismatch here, not in production.
        from repro.verify import fuzz

        report = fuzz(
            seed=1105, cases=200, backends=["serial"], shrink=False
        )
        assert report.ok, [
            m.as_dict()
            for f in report.failures
            for m in f.report.mismatches
        ]

    def test_statically_rejected_plan_fails_dynamically(self):
        from repro.verify import VerifyCase, run_case
        from repro.graph import erdos_renyi

        case = VerifyCase(
            graph=erdos_renyi(24, 0.3, seed=5),
            pattern=four_cycle(),
            name="sym-stripped",
        )
        plan = compile_pattern(four_cycle())
        broken = replace(
            plan,
            steps=tuple(replace(s, upper_bounds=()) for s in plan.steps),
            symmetry_conditions=(),
        )
        object.__setattr__(case, "compile", lambda: broken)
        result = run_case(case, backends=["serial"])
        assert result.static_codes == ("FM110",)
        kinds = {m.kind for m in result.mismatches}
        assert "count" in kinds  # the double count really happens
        assert "static-dynamic" not in kinds  # invariant holds


# ----------------------------------------------------------------------
# FM17x: batch-frontier legality proofs
# ----------------------------------------------------------------------
class TestBatchFrontierProofs:
    def _proof(self, rep):
        proof = rep.data.get("batch_frontier")
        assert proof is not None, "proof section must always be attached"
        return proof

    def test_proof_section_always_attached(self):
        rep = check_plan(compile_pattern(triangle()))
        proof = self._proof(rep)
        assert proof["eligible"] is True
        assert proof["decision"] == "batch"
        assert proof["leaf_shape"] == {"kind": "direct", "fixed_slot": 0}
        statuses = {o["code"]: o["status"] for o in proof["obligations"]}
        assert statuses["FM171"] == "proved"
        assert statuses["FM172"] == "proved"
        assert statuses["FM173"] == "proved"
        assert statuses["FM174"] == "unverified"  # needs a graph

    def test_fm174_proved_with_graph(self):
        from repro.graph import erdos_renyi

        rep = check_plan(
            compile_pattern(triangle()), graph=erdos_renyi(40, 0.2, seed=1)
        )
        statuses = {
            o["code"]: o["status"]
            for o in self._proof(rep)["obligations"]
        }
        assert statuses["FM174"] == "proved"

    def test_fm170_two_vertex_plan_ineligible(self):
        from repro.patterns import edge

        plan = compile_pattern(edge())
        # silent without the opt-in (the recursive path is the default)
        assert check_plan(plan).codes() == ()
        rep = check_plan(plan, batch_frontier=True)
        assert rep.codes() == ("FM170",)
        assert rep.ok  # info: the engine falls back, it does not break
        assert self._proof(rep)["decision"] == "recursive"

    def test_fm171_leaf_shape_fallback(self):
        plan = compile_pattern(four_cycle(), induced=True)
        assert check_plan(plan).codes() == ()
        rep = check_plan(plan, batch_frontier=True)
        assert rep.codes() == ("FM171",)
        assert rep.ok  # warning: per-vertex leaves, still batch-legal
        proof = self._proof(rep)
        assert proof["decision"] == "batch"
        assert proof["leaf_shape"]["kind"] is None

    def test_fm172_base_step_without_level_store(self):
        plan = compile_pattern(diamond())
        idx = next(
            i for i, s in enumerate(plan.steps)
            if s.base_step is not None
        )
        # PlanStep.__post_init__ rejects base_step=0, so a corrupted
        # plan (hand-built, or deserialized around the dataclass) is
        # forged the same way: mutate the frozen field in place.
        mutant = replace(plan.steps[idx])
        object.__setattr__(mutant, "base_step", 0)
        bad = replace(
            plan,
            steps=plan.steps[:idx] + (mutant,) + plan.steps[idx + 1:],
        )
        rep = check_plan(bad)
        assert "FM172" in rep.codes()
        assert not rep.ok

    def test_fm173_row_limit_must_admit_a_row(self):
        rep = check_plan(compile_pattern(triangle()), frontier_row_limit=0)
        assert rep.codes() == ("FM173",)
        assert not rep.ok

    def test_fm174_segment_key_overflow(self):
        from repro.graph import erdos_renyi

        rep = check_plan(
            compile_pattern(triangle()),
            graph=erdos_renyi(40, 0.2, seed=1),
            frontier_row_limit=2 ** 62,
        )
        assert rep.codes() == ("FM174",)
        assert not rep.ok

    def test_fm175_multi_pattern_forced_recursive(self):
        # The frontier walker runs trees; FM175 is left for engines
        # that really route them recursively (hooked candidate
        # generation, supports_leaf_counting = False).
        plan = compile_motifs(3)
        assert check_multi_plan(plan).codes() == ()
        rep = check_multi_plan(plan, batch_frontier=True)
        assert rep.codes() == ()
        assert rep.data["batch_frontier"]["decision"] == "batch"
        rep = check_multi_plan(
            plan, batch_frontier=True, supports_leaf_counting=False
        )
        assert rep.codes() == ("FM175",)
        assert rep.ok
        assert rep.data["batch_frontier"]["decision"] == "recursive"

    def test_multi_plan_obligations_per_path(self):
        from repro.graph import erdos_renyi

        graph = erdos_renyi(40, 0.2, seed=1)
        plan = compile_motifs(4)
        proof = self._proof(check_multi_plan(plan, graph=graph))
        by_code = {}
        for ob in proof["obligations"]:
            by_code.setdefault(ob["code"], []).append(ob)
        assert len(by_code["FM173"]) == 1
        for code in ("FM172", "FM174"):  # one per root-to-leaf path
            assert len(by_code[code]) == plan.num_patterns
            assert {o["status"] for o in by_code[code]} == {"proved"}
        rep = check_multi_plan(
            plan, graph=graph, frontier_row_limit=2 ** 62
        )
        assert set(rep.codes()) == {"FM174"} and not rep.ok
        assert rep.data["batch_frontier"]["decision"] == "recursive"
        assert check_multi_plan(plan, frontier_row_limit=0).codes() == (
            "FM173",
        )

    def test_fm173_reports_single_row_fallback_reachability(self):
        from repro.graph import erdos_renyi

        graph = erdos_renyi(40, 0.2, seed=1)
        plan = compile_pattern(triangle())

        def detail(limit):
            proof = self._proof(
                check_plan(plan, graph=graph, frontier_row_limit=limit)
            )
            return next(
                o["detail"] for o in proof["obligations"]
                if o["code"] == "FM173"
            )

        assert "fallback is reachable" in detail(graph.max_degree() - 1)
        assert "bands only" in detail(graph.max_degree())

    def test_decisions_match_engine_routing(self):
        # The proof's batch/recursive decision must agree with what the
        # engine actually does under batch_frontier=True.
        from repro.engine.explore import PatternAwareEngine
        from repro.graph import erdos_renyi
        from repro.patterns import edge

        graph = erdos_renyi(30, 0.2, seed=7)

        def routed(plan, cls=PatternAwareEngine):
            engine = cls(graph, plan, batch_frontier=True)
            return "batch" if engine._frontier_ok else "recursive"

        for pattern, induced in [
            (triangle(), False),
            (four_cycle(), True),
            (edge(), False),
            (k_clique(4), False),
        ]:
            plan = compile_pattern(pattern, induced=induced)
            rep = check_plan(plan, batch_frontier=True)
            decision = rep.data["batch_frontier"]["decision"]
            assert decision == routed(plan), pattern

        class Hooked(PatternAwareEngine):
            supports_leaf_counting = False

        for k in (3, 4):
            plan = compile_motifs(k)
            for cls in (PatternAwareEngine, Hooked):
                rep = check_multi_plan(
                    plan,
                    batch_frontier=True,
                    supports_leaf_counting=cls.supports_leaf_counting,
                )
                decision = rep.data["batch_frontier"]["decision"]
                assert decision == routed(plan, cls), (k, cls)


class TestBatchFrontierFallbackParity:
    """FM17x-flagged plans must *fall back*, not drift: running them
    with batch_frontier=True has to be bit-identical to the recursive
    path (counts and op counters)."""

    def _parity(self, plan, graph, **engine_kwargs):
        from repro.engine import PatternAwareEngine

        base = PatternAwareEngine(graph, plan).run()
        batch = PatternAwareEngine(
            graph, plan, batch_frontier=True, **engine_kwargs
        ).run()
        assert batch.counts == base.counts
        assert batch.counters.as_dict() == base.counters.as_dict()

    def test_fm170_ineligible_plan_identical(self):
        from repro.graph import erdos_renyi
        from repro.patterns import edge

        self._parity(compile_pattern(edge()), erdos_renyi(40, 0.2, seed=2))

    def test_fm171_fallback_leaf_identical(self):
        from repro.graph import erdos_renyi

        self._parity(
            compile_pattern(four_cycle(), induced=True),
            erdos_renyi(40, 0.2, seed=3),
        )

    def test_fm173_tiny_row_limit_identical(self):
        # A row limit the estimate says will engage the fallback: the
        # engine must chunk, not diverge.
        from repro.graph import erdos_renyi

        self._parity(
            compile_pattern(triangle()),
            erdos_renyi(60, 0.15, seed=4),
            frontier_row_limit=4,
        )

    def test_fuzzed_flagged_plans_fall_back_identically(self):
        # Randomized sweep across the library: every plan the proof
        # routes recursive (or flags for fallback) under the opt-in
        # stays bit-identical when actually run with batch_frontier.
        from repro.graph import erdos_renyi
        from repro.patterns import PATTERN_NAMES, from_name

        graph = erdos_renyi(36, 0.18, seed=11)
        flagged = 0
        for name in PATTERN_NAMES:
            for induced in (False, True):
                plan = compile_pattern(from_name(name), induced=induced)
                rep = check_plan(plan, batch_frontier=True)
                if not rep.findings:
                    continue
                flagged += 1
                self._parity(plan, graph)
        assert flagged >= 3  # the sweep actually exercised fallbacks
