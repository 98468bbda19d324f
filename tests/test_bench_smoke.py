"""The benchmark's tiny ops, run through its own op runner and output checks.

Each workload of ``perfbench/workloads.py`` at its tiny size makes ops
0-5 and runs them as the benchmark does: one ``ptjc.cli.main`` call, the
outputs read back and checked against the workload's own references.  A
change that breaks a workload's config or the shape of its outputs fails
here, not only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_op_passes_its_checks(tmp_path, name, index):
    workload = workloads.WORKLOADS[name](tiny=True)
    result = workloads.run_op(workload, workload.make_op(7, index, tmp_path))
    assert result.errors == []
