"""The benchmark tracer wraps library functions by name; each name must
still resolve, so a deletion that breaks the benchmark fails here first."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("nc2ent_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"nc2ent.{module_name}")
        for name in names:
            head, _, method = name.partition(".")
            value = getattr(module, head, None)
            if value is None or (method and method not in vars(value)):
                missing.append(f"{module_name}.{name}")
    assert not missing, f"benchmarks/tracing.py traces names nc2ent lacks: {', '.join(missing)}"
