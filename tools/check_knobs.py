#!/usr/bin/env python3
"""Fail on an off-by-default switch that nothing turns on.

Lists every ``bool`` field defaulting to ``False`` on ``ConsensusConfig``,
``ScenarioSpec`` and the specs nested in it, and requires each field's
name to appear in some file under ``tests/``, ``benchmarks/suite/`` or in
``src/repro/scenarios/presets.py``.  A behaviour that is off by default
and that no test, suite workload or preset enables is an untested fork:
make it the default or remove it.

    python tools/check_knobs.py [repo-root]

Exit status 0 when every knob is exercised, 1 otherwise (each offender is
named on stderr).  CI's lint stage runs this on every push.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from repro.consensus.config import ConsensusConfig
    from repro.scenarios.spec import ScenarioSpec

    owners = [ConsensusConfig, ScenarioSpec]
    owners += [
        f.default_factory
        for f in dataclasses.fields(ScenarioSpec)
        if dataclasses.is_dataclass(f.default_factory)
    ]
    knobs = sorted(
        (f.name, cls.__name__)
        for cls in owners
        for f in dataclasses.fields(cls)
        if f.default is False
    )
    users = [root / "src/repro/scenarios/presets.py"]
    for directory in ("tests", "benchmarks/suite"):
        users += sorted((root / directory).rglob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in users)
    unused = [(name, owner) for name, owner in knobs if name not in text]
    for name, owner in unused:
        print(f"{owner}.{name}: defaults to False and nothing turns it on", file=sys.stderr)
    print(f"{len(knobs)} default-off knobs, {len(unused)} unexercised")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
