"""Regenerate perfbench/refs.json, the stored S(N) references the benchmark checks.

    python3 perfbench/make_refs.py

The exact_large pool holds N just above 10^12 whose isqrt is 10^6, so every
pooled N costs the same number of floor divisions.  Each reference comes from
s_lemma1 and is written only if s_identity agrees with it exactly; the
default scan grid is checked the same way.  Takes about two minutes.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gcdsum import ScanSpec, s_identity, s_lemma1  # noqa: E402

POOL = [10**12 + k for k in (1, 2, 3, 999, 65536, 999_999, 1_000_000, 2_000_000)]
SCAN_GRID = ScanSpec(10**3, 10**9, 13).grid()


def agreed(n: int) -> int:
    value = s_lemma1(n)
    if s_identity(n) != value:
        raise SystemExit(f"s_identity and s_lemma1 disagree at N={n}")
    return value


def main() -> None:
    refs = {
        "exact_large": {str(n): agreed(n) for n in POOL},
        "scan_default": {str(n): agreed(n) for n in SCAN_GRID},
    }
    path = Path(__file__).with_name("refs.json")
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="ascii")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
