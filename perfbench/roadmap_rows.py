"""Time the rows of the ROADMAP's "Baseline measured" table, once each.

    python3 perfbench/roadmap_rows.py

Those instances take seconds per call, longer than the benchmark's
passes, so the benchmark runs smaller instances of the same code paths.
This script measures the original rows in one process, for comparison
with the table; it prints one JSON object of seconds.
"""

import json
import subprocess
import sys
import time

from workloads import SRC, G, sk


def timed(rows: dict, name: str, fn):
    start = time.perf_counter()
    result = fn()
    rows[name] = round(time.perf_counter() - start, 3)
    return result


def main() -> int:
    rows: dict = {}
    y2 = sk.subdivide_graph(G.y_graph(), 2)
    ordered = timed(rows, "conf_category(subdivide_graph(Y, 2), 3)", lambda: sk.conf_category(y2, 3))
    timed(rows, "quotient_css of it", lambda: sk.quotient_css(ordered, sk.sigma_action(ordered, 3)))
    timed(rows, "sd of it", lambda: sk.sd(ordered))
    timed(rows, "abrams_complex(K5, 2, 3)", lambda: sk.abrams_complex(G.k5_graph(), 2, 3))
    braid4 = sk.braid_arrangement(4)
    timed(rows, "faces_level1(braid(4)), 729 LPs", lambda: sk.faces_level1(braid4))
    timed(rows, "complement_poset(braid(4), 2)", lambda: sk.complement_poset(braid4, 2))
    probe = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import stratakit.cli; print(time.perf_counter() - t)"
    )
    subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True)  # warm caches
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True)
    rows["import stratakit.cli"] = round(float(out.stdout), 3)
    print(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
