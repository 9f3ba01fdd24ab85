#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every public module of :mod:`repro`, and for each name in the
module's ``__all__`` emits its signature and the first paragraph of its
docstring.  Regenerate after API changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

MODULES = [
    "repro.core.model",
    "repro.core.schedule",
    "repro.core.makespan",
    "repro.core.engine",
    "repro.core.vecsim",
    "repro.core.singlecore",
    "repro.core.bounds",
    "repro.core.single_level",
    "repro.core.iar",
    "repro.core.baselines",
    "repro.core.astar",
    "repro.core.bruteforce",
    "repro.core.complexity",
    "repro.core.localsearch",
    "repro.core.online",
    "repro.core.prediction",
    "repro.core.replan",
    "repro.core.interp_tier",
    "repro.core.variability",
    "repro.core.osr",
    "repro.vm.costbenefit",
    "repro.vm.runtime",
    "repro.vm.jikes",
    "repro.vm.v8",
    "repro.vm.hotspot",
    "repro.vm.priorityqueue",
    "repro.jitsim.bytecode",
    "repro.jitsim.interpreter",
    "repro.jitsim.compiler",
    "repro.jitsim.programs",
    "repro.jitsim.generator",
    "repro.jitsim.inlining",
    "repro.jitsim.profile_extract",
    "repro.workloads.synthetic",
    "repro.workloads.dacapo",
    "repro.workloads.traces",
    "repro.workloads.call_log",
    "repro.store.fingerprint",
    "repro.store.cache",
    "repro.store.runstate",
    "repro.analysis.metrics",
    "repro.analysis.experiments",
    "repro.analysis.reporting",
    "repro.analysis.diagnose",
    "repro.analysis.sensitivity",
    "repro.analysis.export",
    "repro.observability.tracer",
    "repro.observability.metrics",
    "repro.observability.export",
    "repro.observability.instrument",
    "repro.telemetry.service_metrics",
    "repro.telemetry.promtext",
    "repro.telemetry.slo",
    "repro.telemetry.flight",
    "repro.telemetry.plane",
    "repro.telemetry.admin",
    "repro.instances.format",
    "repro.instances.v8log",
    "repro.instances.jvmlog",
    "repro.instances.scc",
    "repro.cli",
]


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n", 1)[0].replace("\n", " ").strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


def describe(name: str, obj) -> str:
    if inspect.isclass(obj):
        lines = [f"### class `{name}{signature_of(obj)}`", "", first_paragraph(obj)]
        methods = [
            (mname, method)
            for mname, method in inspect.getmembers(obj, inspect.isfunction)
            if not mname.startswith("_") and method.__qualname__.startswith(obj.__name__)
        ]
        if methods:
            lines.append("")
            for mname, method in methods:
                lines.append(
                    f"- `.{mname}{signature_of(method)}` — {first_paragraph(method)}"
                )
        return "\n".join(lines)
    if callable(obj):
        return f"### `{name}{signature_of(obj)}`\n\n{first_paragraph(obj)}"
    return f"### `{name}`\n\n{first_paragraph(type(obj))or repr(obj)[:200]}"


def main() -> None:
    out = [
        "# API reference",
        "",
        "_Generated by `python tools/gen_api_docs.py` — do not edit by hand._",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        out.append(f"## `{module_name}`")
        out.append("")
        out.append(first_paragraph(module))
        out.append("")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            out.append(describe(name, obj))
            out.append("")
    path = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    path.write_text("\n".join(out))
    print(f"wrote {path} ({len(out)} blocks)")


if __name__ == "__main__":
    main()
