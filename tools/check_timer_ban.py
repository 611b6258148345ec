#!/usr/bin/env python3
"""Guard: raw ``time.perf_counter`` is banned outside the obs layer.

All timing flows through ``repro.obs`` (``monotonic`` or tracer spans)
so solver phase stats, spans, and metrics share one clock.  Ruff
enforces this as TID251 where it is installed; this script is the
zero-dependency equivalent for local runs and CI images without ruff.

Exits non-zero and lists every offending ``file:line`` when a banned
call site is found.  The one allowed location is ``src/repro/obs/``,
which defines the clock; benchmarks time through it too.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Directories scanned for violations.
SCANNED = ("src", "tests", "tools", "benchmarks")

#: Path prefixes (relative to the repo root) exempt from the ban.
ALLOWED_PREFIXES = ("src/repro/obs/",)

BANNED = re.compile(r"\bperf_counter\b")


def find_violations() -> list[str]:
    violations: list[str] = []
    for root in SCANNED:
        for path in sorted((REPO / root).rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            if rel.startswith(ALLOWED_PREFIXES) or path.name == Path(
                __file__
            ).name:
                continue
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                stripped = line.split("#", 1)[0]
                if BANNED.search(stripped):
                    violations.append(f"{rel}:{lineno}: {line.strip()}")
    return violations


def main() -> int:
    violations = find_violations()
    if violations:
        print(
            "banned timer call sites (use repro.obs.monotonic or a "
            "tracer span):",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("timer ban: OK (no raw perf_counter outside obs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
