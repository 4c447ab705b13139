"""Fixture-driven tests for the reprolint invariant checker.

Each of the five rules is exercised both ways: a known-bad snippet must be
flagged (proving the rule fires) and the matching known-good snippet must
come back clean (proving the rule does not cry wolf).  On top of the
snippet fixtures, the guard-deletion tests rewrite the *real* cache-bearing
modules with their ``with <lock>:`` statements replaced by ``if True:`` -
the ISSUE's acceptance criterion that deleting any one lock guard around a
shared LRU mutation makes the lint fail - and the integration tests assert
the shipped tree itself scans clean through the public CLI.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_TOOLS = str(REPO_ROOT / "tools")
if _TOOLS not in sys.path:
    # front of the path so the tools/ package wins over the repo-root
    # ``reprolint.py`` launcher shim
    sys.path.insert(0, _TOOLS)

from reprolint.engine import FileContext, run_rule, scan_paths  # noqa: E402
from reprolint.rules import ALL_RULES, boundary, capability, frozen, hotpath, locks  # noqa: E402

HOT_REL = "src/repro/fftlib/executor.py"


def _rules(rule, source, rel=HOT_REL, extra_frozen=()):
    return run_rule(rule, textwrap.dedent(source), rel, extra_frozen=extra_frozen)


# ----------------------------------------------------------------------
# rule 1: hotpath-alloc
# ----------------------------------------------------------------------

class TestHotpathAlloc:
    def test_flags_numpy_constructor_in_hot_function(self):
        found = _rules(
            hotpath,
            """
            import numpy as np

            def execute(x):
                return np.empty(x.shape, dtype=np.complex128)
            """,
        )
        assert [v.rule for v in found] == ["hotpath-alloc"]
        assert "np.empty" in found[0].message

    def test_native_kernel_shim_is_a_hot_file(self):
        found = _rules(
            hotpath,
            """
            import numpy as np

            def execute(xs, out):
                staging = np.empty(out.shape, dtype=np.complex128)
                return staging
            """,
            rel="src/repro/fftlib/native/kernels.py",
        )
        assert [v.rule for v in found] == ["hotpath-alloc"]

    def test_flags_copy_astype_and_loop_literals(self):
        found = _rules(
            hotpath,
            """
            def transform_rows(rows):
                y = rows.copy()
                z = y.astype(complex)
                for row in z:
                    parts = [row]
                return parts
            """,
        )
        kinds = sorted(v.message.split(" in hot")[0] for v in found)
        assert len(found) == 3
        assert any(".copy" in k for k in kinds)
        assert any(".astype" in k for k in kinds)
        assert any("list literal" in k for k in kinds)

    def test_hot_suffixes_are_hot_and_literals_outside_loops_are_fine(self):
        found = _rules(
            hotpath,
            """
            import numpy as np

            def scatter_overwrite(buf):
                index = [slice(None)] * buf.ndim  # literal outside a loop: fine
                return np.concatenate([buf, buf])
            """,
        )
        assert [v.rule for v in found] == ["hotpath-alloc"]
        assert "np.concatenate" in found[0].message

    def test_non_hot_function_and_non_hot_file_are_exempt(self):
        snippet = """
        import numpy as np

        def build_tables(n):
            return np.zeros(n), [k for k in range(n)]
        """
        assert _rules(hotpath, snippet) == []
        hot_in_cold_file = """
        import numpy as np

        def execute(x):
            return np.zeros_like(x)
        """
        assert _rules(hotpath, hot_in_cold_file, rel="src/repro/perfmodel/opcounts.py") == []

    def test_waiver_silences_including_comment_block_above(self):
        found = _rules(
            hotpath,
            """
            import numpy as np

            def execute(x):
                y = np.empty(3)  # reprolint: alloc-ok - result buffer
                # reprolint: alloc-ok - two-line justification for the
                # allocation on the statement right below
                z = np.zeros(3)
                return y, z
            """,
        )
        assert found == []

    def test_sanctioned_scratch_helper_calls_are_clean(self):
        found = _rules(
            hotpath,
            """
            def execute_into(data, work):
                a, b = _work_buffers(data.size)
                scratch = _stockham_scratch(data.size // 2)
                return a, b, scratch
            """,
        )
        assert found == []

    def test_flags_unguarded_telemetry_emit_in_hot_function(self):
        found = _rules(
            hotpath,
            """
            from repro.telemetry import trace as _trace

            def execute(x):
                _trace.emit("stage-done", n=x.size)
                return x
            """,
        )
        assert [v.rule for v in found] == ["hotpath-alloc"]
        assert "unguarded telemetry emit" in found[0].message

    def test_guarded_emit_and_cold_function_emit_are_clean(self):
        guarded = """
        from repro.telemetry import trace as _trace

        def execute(x):
            if _trace.active:
                _trace.emit("stage-done", n=x.size)
            return x
        """
        assert _rules(hotpath, guarded) == []
        cold = """
        from repro.telemetry import trace as _trace

        def build(x):
            _trace.emit("compiled", n=x.size)
            return x
        """
        assert _rules(hotpath, cold) == []

    def test_emit_in_else_branch_of_active_guard_is_flagged(self):
        found = _rules(
            hotpath,
            """
            from repro.telemetry import trace as _trace

            def transform_rows(rows):
                if _trace.active:
                    _trace.emit("on", rows=len(rows))
                else:
                    _trace.emit("off", rows=len(rows))
                return rows
            """,
        )
        assert [v.rule for v in found] == ["hotpath-alloc"]
        assert "unguarded telemetry emit" in found[0].message


# ----------------------------------------------------------------------
# rule 2: lock-discipline
# ----------------------------------------------------------------------

MODULE_CACHE = """
import threading
from collections import OrderedDict

_cache_lock = threading.RLock()
_programs = OrderedDict()
_hits = 0

def cached(key, build):
    global _hits
    {mutation_block}
"""

GOOD_MUTATIONS = """with _cache_lock:
        _programs[key] = build()
        _programs.move_to_end(key)
        _hits += 1
    return _programs[key]"""

BAD_MUTATIONS = """_programs[key] = build()
    _programs.move_to_end(key)
    _hits += 1
    return _programs[key]"""


class TestLockDiscipline:
    def test_unlocked_module_cache_mutations_flagged(self):
        found = _rules(locks, MODULE_CACHE.format(mutation_block=BAD_MUTATIONS))
        assert len(found) == 3  # subscript store, move_to_end, counter +=
        assert {v.rule for v in found} == {"lock-discipline"}
        assert any("_programs" in v.message for v in found)
        assert any("_hits" in v.message for v in found)

    def test_locked_module_cache_is_clean(self):
        assert _rules(locks, MODULE_CACHE.format(mutation_block=GOOD_MUTATIONS)) == []

    def test_module_without_lock_is_out_of_scope(self):
        found = _rules(
            locks,
            """
            _registry = {}

            def register(name, value):
                _registry[name] = value
            """,
        )
        assert found == []

    def test_unlocked_class_counter_and_container_flagged(self):
        found = _rules(
            locks,
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._tasks = []
                    self._submitted = 0

                def submit(self, task):
                    self._tasks.append(task)
                    self._submitted += 1
            """,
        )
        assert len(found) == 2
        assert all(v.rule == "lock-discipline" for v in found)

    def test_locked_class_and_dataclass_field_declarations(self):
        found = _rules(
            locks,
            """
            import threading
            from dataclasses import dataclass, field
            from typing import Dict

            @dataclass
            class Planner:
                wisdom: Dict[str, object] = field(default_factory=dict)
                _lock: threading.Lock = field(default_factory=threading.Lock)

                def remember(self, key, plan):
                    with self._lock:
                        self.wisdom[key] = plan

                def forget(self):
                    self.wisdom.clear()
            """,
        )
        assert [v.message.split(" of ")[0] for v in found] == [".clear(...) call"]

    def test_waiver_allows_documented_unlocked_access(self):
        found = _rules(
            locks,
            """
            import threading

            _lock = threading.Lock()
            _stats = {}

            def reset_for_tests():
                _stats.clear()  # reprolint: lock-ok - test-only, single-threaded
            """,
        )
        assert found == []


GUARDED_FILES = [
    ("src/repro/fftlib/executor.py", "with _cache_lock:"),
    ("src/repro/core/ftplan.py", "with _cache_lock:"),
    ("src/repro/fftlib/twiddle.py", "with self._lock:"),
    ("src/repro/fftlib/backends.py", "with _LOCK:"),
    ("src/repro/fftlib/planner.py", "with self._lock:"),
    ("src/repro/fftlib/native/cache.py", "with _lock:"),
    ("src/repro/fftlib/native/kernels.py", "with _counter_lock:"),
    ("src/repro/telemetry/trace.py", "with _lock:"),
]


class TestGuardDeletionOnRealModules:
    """Deleting any lock guard around shared-cache mutations fails the lint."""

    @pytest.mark.parametrize("rel,guard", GUARDED_FILES, ids=[f[0] for f in GUARDED_FILES])
    def test_removing_every_guard_fires(self, rel, guard):
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        assert guard in source, f"expected {guard!r} in {rel}"
        unlocked = source.replace(guard, "if True:")
        assert run_rule(locks, unlocked, rel), f"{rel}: removing {guard!r} went undetected"

    @pytest.mark.parametrize("rel,guard", GUARDED_FILES, ids=[f[0] for f in GUARDED_FILES])
    def test_removing_any_single_guard_fires(self, rel, guard):
        """Differential check, one guard at a time.

        Some ``with lock:`` blocks guard only *reads* (counter snapshots,
        registry lookups) - the rule rightly stays quiet when those are
        un-guarded.  So: take the violation lines of the everything-removed
        variant as ground truth, and assert each single-guard removal fires
        exactly the subset of those lines inside its block - in particular,
        every block that mutates shared LRU/counter state must fire.
        """

        import ast as ast_mod

        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        spans = []
        for node in ast_mod.walk(ast_mod.parse(source)):
            if isinstance(node, ast_mod.With):
                if f"with {ast_mod.unparse(node.items[0].context_expr)}:" == guard:
                    spans.append((node.lineno, node.end_lineno))
        spans.sort()
        assert len(spans) == source.count(guard)
        truth = {
            v.line for v in run_rule(locks, source.replace(guard, "if True:"), rel)
        }
        assert truth, f"{rel}: removing every {guard!r} produced no violations"
        mutating_blocks = 0
        for index, (first, last) in enumerate(spans):
            pieces = source.split(guard)
            mutated = ""
            for i, piece in enumerate(pieces):
                mutated += piece
                if i < len(pieces) - 1:
                    mutated += "if True:" if i == index else guard
            got = {v.line for v in run_rule(locks, mutated, rel)}
            expected = {line for line in truth if first <= line <= last}
            assert got == expected, (
                f"{rel}: occurrence {index} of {guard!r} expected lines "
                f"{sorted(expected)}, got {sorted(got)}"
            )
            if expected:
                mutating_blocks += 1
        assert mutating_blocks, f"{rel}: no {guard!r} block guards a mutation"

    @pytest.mark.parametrize("rel,guard", GUARDED_FILES, ids=[f[0] for f in GUARDED_FILES])
    def test_shipped_module_is_clean(self, rel, guard):
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        assert run_rule(locks, source, rel) == []


# ----------------------------------------------------------------------
# rule 3: frozen-object
# ----------------------------------------------------------------------

FROZEN_PREAMBLE = """
from dataclasses import dataclass, replace

@dataclass(frozen=True)
class FTConfig:
    n: int = 0
"""


class TestFrozenObject:
    def test_assignment_on_constructed_instance_flagged(self):
        found = _rules(
            frozen,
            FROZEN_PREAMBLE
            + textwrap.dedent(
                """
                def tweak():
                    cfg = FTConfig(n=4)
                    cfg.n = 8
                    return cfg
                """
            ),
        )
        assert [v.rule for v in found] == ["frozen-object"]
        assert "FTConfig" in found[0].message

    def test_annotated_parameter_and_replace_results_tracked(self):
        found = _rules(
            frozen,
            FROZEN_PREAMBLE
            + textwrap.dedent(
                """
                def tweak(cfg: FTConfig):
                    other = replace(cfg, n=16)
                    other.n = 32
                """
            ),
        )
        assert len(found) == 1 and "other.n" in found[0].message

    def test_classmethod_constructor_tracked_across_files(self):
        found = _rules(
            frozen,
            """
            def build():
                cfg = FTConfig.from_name("online")
                cfg.scheme = "offline"
            """,
            extra_frozen={"FTConfig"},
        )
        assert len(found) == 1

    def test_object_setattr_outside_frozen_methods_flagged(self):
        found = _rules(
            frozen,
            FROZEN_PREAMBLE
            + textwrap.dedent(
                """
                def sneak(cfg: FTConfig):
                    object.__setattr__(cfg, "n", 99)
                """
            ),
        )
        assert [v.rule for v in found] == ["frozen-object"]
        assert "__setattr__" in found[0].message

    def test_own_post_init_setattr_is_allowed(self):
        found = _rules(
            frozen,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                n: int = 0

                def __post_init__(self):
                    object.__setattr__(self, "n", int(self.n))
            """,
        )
        assert found == []

    def test_pytest_raises_blocks_are_exempt(self):
        found = _rules(
            frozen,
            FROZEN_PREAMBLE
            + textwrap.dedent(
                """
                import pytest

                def test_frozen():
                    cfg = FTConfig(n=4)
                    with pytest.raises(Exception):
                        cfg.n = 8
                """
            ),
        )
        assert found == []

    def test_rebinding_a_holder_attribute_is_not_mutation(self):
        found = _rules(
            frozen,
            FROZEN_PREAMBLE
            + textwrap.dedent(
                """
                def swap(holder):
                    holder.config = FTConfig(n=4)  # holder is not frozen
                    return replace(holder.config, n=8)
                """
            ),
        )
        assert found == []


# ----------------------------------------------------------------------
# rule 4: capability-guard
# ----------------------------------------------------------------------

class TestCapabilityGuard:
    def test_unguarded_stockham_lowering_flagged(self):
        found = _rules(
            capability,
            """
            def lower(n):
                return get_stockham_program(n)
            """,
            rel="src/repro/fftlib/planner.py",
        )
        assert [v.rule for v in found] == ["capability-guard"]
        assert "get_stockham_program" in found[0].message

    def test_supported_guard_and_closure_inheritance(self):
        found = _rules(
            capability,
            """
            def lower(n):
                if not stockham_supported(n):
                    return None
                program = get_stockham_program(n)

                def run(buf):
                    return program.execute_inplace(buf)

                return run
            """,
            rel="src/repro/fftlib/planner.py",
        )
        assert found == []

    def test_hasattr_and_is_none_checks_count_as_guards(self):
        found = _rules(
            capability,
            """
            def run(program, buf):
                if hasattr(program, "execute_inplace"):
                    return program.execute_inplace(buf)
                return program.execute(buf)

            class Plan:
                def __init__(self, n):
                    self._stockham = get_stockham_program(n) if stockham_supported(n) else None

                def overwrite(self, buf):
                    if self._stockham is not None:
                        return self._stockham.execute_inplace(buf)
                    return buf
            """,
            rel="src/repro/fftlib/plan.py",
        )
        assert found == []

    def test_own_method_calls_are_exempt(self):
        found = _rules(
            capability,
            """
            import numpy as np

            class StockhamStageProgram:
                def execute_inplace(self, buf):
                    return buf

                def execute(self, x):
                    out = x + 0
                    return self.execute_inplace(out)
            """,
            rel="src/repro/fftlib/executor.py",
        )
        assert found == []

    def test_unguarded_native_kernels_flagged_and_guard_accepted(self):
        bad = _rules(
            capability,
            """
            def bind(program):
                return get_native_kernels()
            """,
            rel="src/repro/fftlib/native/kernels.py",
        )
        assert len(bad) == 1 and "get_native_kernels" in bad[0].message
        good = _rules(
            capability,
            """
            def bind(program):
                if not native_supported():
                    return None
                return get_native_kernels()

            def bind_via_backend(backend):
                if not backend.supports_native:
                    return None
                return get_native_kernels()
            """,
            rel="src/repro/fftlib/executor.py",
        )
        assert good == []

    def test_tests_and_benchmarks_are_out_of_scope(self):
        snippet = """
        def poke(n):
            return get_stockham_program(n)
        """
        assert _rules(capability, snippet, rel="tests/fftlib/test_inplace.py") == []
        assert _rules(capability, snippet, rel="benchmarks/bench_speedup.py") == []


# ----------------------------------------------------------------------
# rule 5: fft-boundary
# ----------------------------------------------------------------------

class TestFFTBoundary:
    def test_np_fft_use_in_src_flagged(self):
        found = _rules(
            boundary,
            """
            import numpy as np

            def reference(x):
                return np.fft.fft(x)
            """,
            rel="src/repro/cli.py",
        )
        assert [v.rule for v in found] == ["fft-boundary"]

    def test_numpy_fft_imports_flagged(self):
        found = _rules(
            boundary,
            """
            import numpy.fft
            from numpy import fft
            from numpy.fft import rfft
            """,
            rel="src/repro/utils/reporting.py",
        )
        assert len(found) == 3

    def test_backends_and_tests_are_allowed(self):
        snippet = """
        import numpy as np

        def oracle(x):
            return np.fft.fft(x)
        """
        assert _rules(boundary, snippet, rel="src/repro/fftlib/backends.py") == []
        assert _rules(boundary, snippet, rel="tests/fftlib/test_executor.py") == []

    def test_waiver_for_benchmark_oracles(self):
        found = _rules(
            boundary,
            """
            import numpy as np

            def reference(x):
                return np.fft.fft(x)  # reprolint: fft-ok - raw reference oracle
            """,
            rel="benchmarks/bench_fig8a_strong_scaling.py",
        )
        assert found == []

    def test_scipy_fft_is_not_numpy_fft(self):
        found = _rules(
            boundary,
            """
            import scipy

            def reference(x):
                return scipy.fft.fft(x)
            """,
            rel="src/repro/perfmodel/opcounts.py",
        )
        assert found == []


# ----------------------------------------------------------------------
# integration: the shipped tree and the CLI
# ----------------------------------------------------------------------

class TestIntegration:
    def test_shipped_tree_scans_clean(self):
        violations = scan_paths(["src", "tests", "benchmarks"], root=REPO_ROOT)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_cli_exits_zero_on_tree_and_one_on_violation(self, tmp_path, capsys):
        from reprolint.cli import main

        assert main(["--root", str(REPO_ROOT), "src", "tests", "benchmarks"]) == 0
        capsys.readouterr()
        bad = tmp_path / "src" / "repro"
        bad.mkdir(parents=True)
        bad_file = bad / "offender.py"
        bad_file.write_text(
            "import numpy as np\n\ndef reference(x):\n    return np.fft.fft(x)\n"
        )
        assert main(["--root", str(tmp_path), str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "fft-boundary" in out

    def test_cli_lists_all_five_rules(self, capsys):
        from reprolint.cli import main

        assert main(["--list-rules"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == [
            "hotpath-alloc",
            "lock-discipline",
            "frozen-object",
            "capability-guard",
            "fft-boundary",
        ]

    def test_parse_error_is_reported_not_crashed(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        violations = scan_paths([str(bad)], root=tmp_path)
        assert [v.rule for v in violations] == ["parse-error"]

    def test_every_rule_module_declares_rule_and_waiver(self):
        for rule in ALL_RULES:
            assert rule.RULE
            assert rule.WAIVER.endswith("-ok")

    def test_waiver_parsing_handles_lists_and_blocks(self):
        ctx = FileContext.from_source(
            "x = 1  # reprolint: alloc-ok, lock-ok - shared justification\n"
        )
        assert ctx.waivers[1] == {"alloc-ok", "lock-ok"}
