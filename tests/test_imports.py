"""The import boundary: optional dependencies never load on the import or run path.

scipy (``clover-repro[stats]``) and networkx (``clover-repro[graph]``) back
one helper each.  A bare ``pip install clover-repro`` must still import
every module and run every scenario, so the check runs in a fresh
interpreter with both packages blocked by a ``sys.meta_path`` finder.
Whatever the test process itself has already imported cannot hide a leak.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import repro

REPO = Path(__file__).resolve().parents[1]
SCENARIO = REPO / "examples" / "scenarios" / "load_shifting.toml"
PACKAGE_ROOT = Path(repro.__file__).resolve().parents[1]

CHILD = textwrap.dedent(
    """
    import importlib
    import importlib.abc
    import pkgutil
    import sys

    BLOCKED = ("scipy", "networkx")

    class BlockOptional(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] in BLOCKED:
                raise ImportError(f"{name} is blocked by the import-boundary test")
            return None

    sys.meta_path.insert(0, BlockOptional())
    sys.path.insert(0, sys.argv[1])

    import numpy as np

    import repro

    modules = [
        m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    for name in modules:
        importlib.import_module(name)
    print("imported", len(modules))

    from repro.analysis.reporting import format_table
    from repro.scenarios import Scenario, load_scenario_file

    spec, _ = load_scenario_file(sys.argv[2])
    spec = spec.with_fidelity("smoke")
    coordinator = Scenario(spec).build()
    result = coordinator.run(
        duration_h=spec.duration_h, parallel_regions=spec.parallel_regions
    )
    assert result.has_batch, "load_shifting.toml should exercise the batch path"
    for table in (result.table(), result.batch_table()):
        format_table(*table)
    print("ran", spec.label)

    leaked = sorted(
        m for m in sys.modules if m.split(".")[0] in BLOCKED
    )
    assert not leaked, f"optional dependencies loaded: {leaked}"

    from repro.core.graph import ConfigGraph
    from repro.utils.stats import percentile_ci

    try:
        percentile_ci(np.arange(20.0), 95.0)
    except ImportError as exc:
        assert "clover-repro[stats]" in str(exc), exc
    else:
        raise AssertionError("percentile_ci ran without scipy")

    try:
        ConfigGraph("f", np.zeros((2, 5), dtype=np.int64)).to_networkx()
    except ImportError as exc:
        assert "clover-repro[graph]" in str(exc), exc
    else:
        raise AssertionError("to_networkx ran without networkx")
    print("ok")
    """
)


def test_optional_dependencies_stay_off_import_and_run_path():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE_ROOT), str(SCENARIO)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "ok", proc.stdout
    # The walk really visited the package, not an empty path.
    assert int(lines[0].split()[1]) > 50, lines[0]
