"""Process-safety coverage for a collector-style pool dispatch shape.

A collector that ships episode specs into a process pool and gets
transition blocks back is the shape these fixtures lint.  They pin the
endorsed payload shape — a module-level worker fed plain dicts of
scalars, strings, and arrays — as P/W-clean, and pin the tempting
shortcuts (shipping a live RNG, a tracer, or a lambda along with the
spec, or merging in completion order) as findings.  The library's
remaining pool-dispatch site, the parallel experiment runner
(``repro.eval.parallel``), must stay clean too.
"""

import textwrap

from repro.analysis.config import LintConfig
from repro.analysis.engine import run_analysis
from tests.analysis.conftest import repo_root, rules_of

PROCESS_RULES = {"P101", "P102", "P103", "P104"}
WORKER_RULES = {"W101", "W102", "W103"}


def src(code):
    return textwrap.dedent(code).lstrip("\n")


class TestCollectorPayloadShape:
    def test_plain_spec_dict_dispatch_is_clean(self, lint):
        # The endorsed transition-block shape: the worker receives one
        # plain dict (factory string, seeds, policy weights) and builds
        # its own env and RNG inside the child.
        findings = lint(src("""
            def run_episode(spec):
                return {"episode": spec["episode"], "steps": spec["steps"]}

            def collect(pool, specs):
                return list(pool.map(run_episode, specs))
        """))
        assert rules_of(findings).isdisjoint(PROCESS_RULES | WORKER_RULES)

    def test_live_rng_in_spec_is_flagged(self, lint):
        # Shipping the parent's generator would tie worker draws to
        # parent state (and pickling a BitGenerator forks its stream).
        findings = lint(src("""
            from numpy.random import default_rng

            def run_episode(spec, rng):
                return rng.normal()

            def collect(pool, spec):
                rng = default_rng(0)
                return pool.submit(run_episode, spec, rng)
        """))
        assert "W102" in rules_of(findings)

    def test_tracer_in_spec_is_flagged(self, lint):
        # Workers must not carry the learner's tracer; merged telemetry
        # is emitted parent-side at merge time instead.
        findings = lint(src("""
            def run_episode(spec, t):
                return t

            class Collector:
                def collect(self, executor, spec):
                    return executor.submit(
                        run_episode, spec, self.tracer
                    )
        """))
        assert "W103" in rules_of(findings)

    def test_lambda_episode_worker_is_flagged(self, lint):
        findings = lint(src("""
            def collect(pool, specs):
                return list(pool.map(lambda s: s["episode"], specs))
        """))
        assert "P101" in rules_of(findings)

    def test_completion_order_merge_is_flagged(self, lint):
        # Merging blocks in completion order would let scheduling leak
        # into the replay buffer; the channel requires episode order.
        findings = lint(src("""
            from concurrent.futures import as_completed

            def run_episode(spec):
                return spec

            def collect(pool, specs):
                futures = [
                    pool.submit(run_episode, s) for s in specs
                ]
                merged = []
                for future in as_completed(futures):
                    merged.append(future.result())
                return merged
        """))
        assert "P104" in rules_of(findings)


class TestRealCollectorModuleIsClean:
    def test_parallel_runner_has_zero_process_findings(self):
        root = repo_root()
        target = root / "src" / "repro" / "eval" / "parallel.py"
        findings = run_analysis(
            [target], config=LintConfig(root=root / "src")
        ).findings
        flagged = rules_of(findings) & (PROCESS_RULES | WORKER_RULES)
        assert not flagged, findings
