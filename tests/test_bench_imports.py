"""The benchmark's workloads import every negtype name they call.

benches/ runs outside the suite; importing its workload module here means a
public name the benchmark uses cannot be removed without failing the suite.
"""

import importlib
from pathlib import Path

BENCHES = Path(__file__).resolve().parent.parent / "benches"


def test_workloads_import(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHES))
    workloads = importlib.import_module("workloads")
    assert set(workloads.WORKLOADS) == {"certify_cli", "sweep_lib", "ultra_roundtrip"}
