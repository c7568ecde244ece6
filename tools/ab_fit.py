"""A/B of ``gbm.fit`` between two source trees, on the benchmark's shapes.

    python3 tools/ab_fit.py BASE_SRC CHANGE_SRC [--rounds N] [--trees T]

``BASE_SRC`` and ``CHANGE_SRC`` are ``src/`` directories of two checkouts.
Each round runs one child process per side, the sides in alternating order
(the base first in even rounds).  A child imports its side's ``pollencast``
and fits each shape once on rows of ``generate_synthetic(seed=42,
years=17)``, with ``delta_c=120`` and ``delta_n=4``:

* ``fold`` 120 x 349 (2003-2004) and ``full`` 180 x 349 (2003-2005), the
  Stage-1 fits of ``train``, with the default config;
* ``stage2`` 180 x 350, the Stage-2 rows of 2003-2005 (LOYO), default
  config;
* ``bt300`` 300 x 349 (2003-2007) and ``bt420`` 420 x 349 (2003-2009),
  the smallest and largest Stage-1 fits of ``backtest``, with its config.

``--trees T`` sets every config's tree count to T (the Stage-2 rows' fold
fits included), for a quick run.  The table gives each shape's median CPU
seconds of ``gbm.fit`` per side, their ratio (change / base) and whether the
sha256 of ``gbm.to_json`` is equal on both sides in every round.  The exit
status is 1 if any digest differs, 2 if a child fails, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

#: The ``backtest`` workload's Stage-1 and Stage-2 settings.
BACKTEST = {"n_trees": 30, "max_depth": 2, "learning_rate": 0.25}

#: (name, training years, Stage-2 rows, config overrides) of each shape.
SHAPES = (
    ("fold", (2003, 2004), False, {}),
    ("full", (2003, 2004, 2005), False, {}),
    ("stage2", (2003, 2004, 2005), True, {}),
    ("bt300", tuple(range(2003, 2008)), False, BACKTEST),
    ("bt420", tuple(range(2003, 2010)), False, BACKTEST),
)


def _child(src: str, trees: int | None) -> dict:
    """Fit every shape once with the ``pollencast`` under ``src``: CPU
    seconds, rows x columns and digest per shape."""
    sys.path.insert(0, os.path.abspath(src))
    from pollencast import gbm, pipeline
    from pollencast.data import SeasonDefinition
    from pollencast.synth import generate_synthetic

    data = generate_synthetic(seed=42, years=17)
    season = SeasonDefinition(delta_c=120.0, delta_n=4)
    count = {} if trees is None else {"n_trees": trees}
    out = {}
    for name, years, stage2, overrides in SHAPES:
        cfg = gbm.GBMConfig(**{**overrides, **count})
        if stage2:
            rows = pipeline.build_s2(data, season, years,
                                     stage1_cfg=gbm.GBMConfig(**count))
        else:
            rows = pipeline.build_s1(data, season, years)
        t0 = time.process_time()
        model = gbm.fit(rows.features, rows.targets, cfg).model
        cpu = time.process_time() - t0
        out[name] = {
            "cpu_s": cpu,
            "shape": "x".join(map(str, rows.features.shape)),
            "digest": hashlib.sha256(gbm.to_json(model).encode()).hexdigest(),
        }
    return out


def _run_side(src: str, trees: int | None) -> dict | None:
    """One child's shapes, or None after printing why the child failed."""
    argv = [sys.executable, os.path.abspath(__file__), "--child", src]
    if trees is not None:
        argv += ["--trees", str(trees)]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: the child for {src} exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="the base side's src/ directory")
    parser.add_argument("change", nargs="?", help="the changed side's src/ directory")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--trees", type=int, default=None)
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child, args.trees)))
        return 0
    if args.base is None or args.change is None or args.rounds < 1:
        parser.error("need BASE_SRC, CHANGE_SRC and --rounds >= 1")

    sides = {"base": args.base, "change": args.change}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for r in range(args.rounds):
        for side in (("base", "change") if r % 2 == 0 else ("change", "base")):
            shapes = _run_side(sides[side], args.trees)
            if shapes is None:
                return 2
            runs[side].append(shapes)

    print(f"{'shape':<18}{'base s':>9}{'change s':>10}{'ratio':>8}  digests")
    mismatch = False
    for name, *_ in SHAPES:
        base = statistics.median(run[name]["cpu_s"] for run in runs["base"])
        change = statistics.median(run[name]["cpu_s"] for run in runs["change"])
        digests = {run[name]["digest"] for side in runs.values() for run in side}
        mismatch |= len(digests) > 1
        label = f"{name} {runs['base'][0][name]['shape']}"
        print(f"{label:<18}{base:>9.3f}{change:>10.3f}{change / base:>8.3f}  "
              f"{'equal' if len(digests) == 1 else 'DIFFER'}")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
