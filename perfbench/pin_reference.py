"""Regenerate ``reference.json``: pinned outputs for fixed design specs.

    PYTHONPATH=src python3 perfbench/pin_reference.py

Run it only when a change to the program is *meant* to change these
results; the correctness gate compares every run against the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Fixed specs spanning both networks, precisions, tier counts and the
#: physical verdicts (feasible, timing miss, floorplan failure).
SPECS = (
    ({}, False),
    ({"arch": {"capacity_mb": 32, "tier_pairs": 2},
      "workload": {"network": "mobilenet_v1"}}, False),
    ({"arch": {"capacity_mb": 128, "tier_pairs": 8, "precision_bits": 4}},
     False),
    ({"arch": {"capacity_mb": 20.5, "tier_pairs": 4},
      "workload": {"network": "mobilenet_v1"}}, False),
    ({"arch": {"capacity_mb": 48}, "flow": {"frequency_mhz": 100.0}}, True),
    ({"arch": {"capacity_mb": 64}, "flow": {"frequency_mhz": 300.0,
                                             "aspect_ratio": 2.0}}, True),
    ({"arch": {"capacity_mb": 40, "tier_pairs": 2}}, True),
)


def main() -> int:
    from gate import scalar_record
    from repro.spec import DesignSpec

    entries = []
    for overlay, physical in SPECS:
        spec = DesignSpec.from_jsonable(overlay).to_jsonable()
        record = scalar_record(spec, physical=physical)
        entries.append({**record, "physical": physical})
    path = HERE / "reference.json"
    path.write_text(json.dumps({"evaluations": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} pinned evaluations to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
