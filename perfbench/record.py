"""Record the outputs that the benchmark's checks compare against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload once and writes ``expected/<workload>.json``. Only run
it on a commit whose outputs are trusted: the benchmark fails every
operation whose output differs from these files.
"""

import json
import sys
from pathlib import Path

from workloads import EXPECTED_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))
import kgz  # noqa: E402


def main(names):
    OUT_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        expected = wl.record(wl.prepare(kgz, OUT_DIR)(), OUT_DIR)
        path = EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(expected, indent=0) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
