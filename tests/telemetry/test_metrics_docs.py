"""Anti-rot check: ``docs/metrics.md`` vs the live telemetry vocabulary.

The reference tables in ``docs/metrics.md`` must name *exactly* the
counters, gauges, collector surfaces, and trace events the source tree can
emit.  Both directions are enforced: an undocumented name fails (new
telemetry ships with its documentation), and a documented name that no
longer exists fails (the docs cannot describe ghosts).  Each counter's
``labels`` cell is held to the same standard against the keyword names its
``inc(...)`` call sites pass.

The live vocabulary is recovered by walking the AST of every module under
``src/`` for literal first arguments to ``inc`` / ``set_gauge`` /
``register_collector`` / ``emit`` calls - the same shapes reprolint
checks, so dynamically-computed metric names (there are none, by
convention) would be a lint conversation first.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC_ROOT = REPO_ROOT / "src"
DOC_PATH = REPO_ROOT / "docs" / "metrics.md"

#: docs/metrics.md section heading -> vocabulary bucket
SECTIONS = {
    "## Counters": "counters",
    "## Gauges": "gauges",
    "## Collector surfaces": "collectors",
    "## Trace events": "events",
}

_CALLS = {
    "inc": "counters",
    "set_gauge": "gauges",
    "register_collector": "collectors",
    "emit": "events",
}

_ROW = re.compile(r"^\|\s*`([a-z][a-z0-9_-]*)`")
_LABEL = re.compile(r"`([a-z][a-z0-9_]*)`")


def _literal_calls() -> Iterator[Tuple[str, str, ast.Call]]:
    """``(call, literal name, node)`` for every vocabulary call under ``src/``."""

    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                call = func.attr
            elif isinstance(func, ast.Name):
                call = func.id
            else:
                continue
            if call not in _CALLS:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                yield call, first.value, node


def scan_source_vocabulary() -> Dict[str, Set[str]]:
    vocabulary: Dict[str, Set[str]] = {bucket: set() for bucket in _CALLS.values()}
    for call, name, _ in _literal_calls():
        vocabulary[_CALLS[call]].add(name)
    return vocabulary


def scan_counter_labels() -> Dict[str, Set[Optional[str]]]:
    """Counter -> keyword label names over all its ``inc(...)`` sites
    (``None`` marks a ``**labels`` splat the scan cannot read)."""

    labels: Dict[str, Set[Optional[str]]] = {}
    for call, name, node in _literal_calls():
        if call == "inc":
            labels.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    return labels


def _documented_rows() -> Iterator[Tuple[str, str, List[str]]]:
    """``(bucket, name, cells)`` for every table row under a known heading."""

    bucket = None
    for line in DOC_PATH.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            bucket = SECTIONS.get(line.strip())
            continue
        match = _ROW.match(line)
        if bucket is not None and match:
            yield bucket, match.group(1), line.split("|")


def parse_documented_vocabulary() -> Dict[str, Set[str]]:
    documented: Dict[str, Set[str]] = {bucket: set() for bucket in SECTIONS.values()}
    for bucket, name, _ in _documented_rows():
        documented[bucket].add(name)
    return documented


def parse_documented_counter_labels() -> Dict[str, Set[Optional[str]]]:
    """Counter -> the backticked names in its ``labels`` cell."""

    return {
        name: set(_LABEL.findall(cells[2]))
        for bucket, name, cells in _documented_rows()
        if bucket == "counters"
    }


def test_docs_metrics_exists():
    assert DOC_PATH.exists(), "docs/metrics.md is part of the telemetry contract"


def test_every_live_name_is_documented():
    live = scan_source_vocabulary()
    documented = parse_documented_vocabulary()
    for bucket, names in live.items():
        missing = names - documented[bucket]
        assert not missing, (
            f"telemetry {bucket} missing from docs/metrics.md: {sorted(missing)} "
            f"- document them in the '{bucket}' table"
        )


def test_every_documented_name_is_live():
    live = scan_source_vocabulary()
    documented = parse_documented_vocabulary()
    for bucket, names in documented.items():
        stale = names - live[bucket]
        assert not stale, (
            f"docs/metrics.md documents {bucket} that no longer exist: {sorted(stale)} "
            f"- delete the rows (or restore the telemetry)"
        )


def test_doc_tables_are_nonempty():
    documented = parse_documented_vocabulary()
    assert documented["counters"], "the counters table parsed empty - check the headings"
    assert documented["collectors"], "the collector table parsed empty"
    assert documented["events"], "the trace-events table parsed empty"


def test_counter_labels_match_their_inc_sites():
    live = scan_counter_labels()
    documented = parse_documented_counter_labels()
    for counter in sorted(set(live) | set(documented)):
        sites = live.get(counter, set())
        assert None not in sites, (
            f"an inc({counter!r}, ...) site passes labels through **kwargs - "
            f"pass them as literal keywords so the docs can be checked"
        )
        assert documented.get(counter, set()) == sites, (
            f"docs/metrics.md labels for {counter!r}: "
            f"{sorted(documented.get(counter, set()))}, inc(...) sites pass "
            f"{sorted(sites)} - fix the labels cell (or the call sites)"
        )
