"""The scripts under ``tools/``, run as a user runs them."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB_FIT = ROOT / "tools" / "ab_fit.py"


def ab_fit(base: Path, change: Path, rounds: int = 1) -> subprocess.CompletedProcess:
    """``rounds`` rounds of two-tree fits of ``tools/ab_fit.py``."""
    return subprocess.run(
        [sys.executable, str(AB_FIT), str(base), str(change),
         "--rounds", str(rounds), "--trees", "2"],
        capture_output=True, text=True, timeout=120)


def test_ab_fit_checkout_against_itself():
    done = ab_fit(ROOT / "src", ROOT / "src", rounds=2)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == [
        "shape", "base", "s", "base", "min", "change", "s", "change", "min",
        "ratio", "min", "ratio", "rounds", "digests"]
    assert [row.split()[:2] for row in rows] == [
        ["fold", "120x349"], ["full", "180x349"], ["stage2", "180x350"],
        ["bt300", "300x349"], ["bt420", "420x349"]]
    for row in rows:
        _, _, base, base_min, change, change_min, ratio, min_ratio, spread, digests = (
            row.split())
        assert digests == "equal"
        assert float(base_min) <= float(base) and float(change_min) <= float(change)
        assert float(min_ratio) > 0.0
        # the ratio of two-round medians, (c1 + c2) / (b1 + b2), lies
        # between the rounds' ratios c1 / b1 and c2 / b2
        low, high = map(float, spread.split("-"))
        assert low <= float(ratio) <= high


def test_ab_fit_reports_a_changed_model(tmp_path):
    # a copy whose default learning rate differs fits other models
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change,
                    ignore=shutil.ignore_patterns("__pycache__"))
    gbm_py = change / "pollencast" / "gbm.py"
    text = gbm_py.read_text()
    assert text.count("learning_rate: float = 0.05") == 1
    gbm_py.write_text(text.replace("learning_rate: float = 0.05",
                                   "learning_rate: float = 0.06"))
    done = ab_fit(ROOT / "src", change)
    assert done.returncode == 1, done.stderr
    assert [row.split()[-1] for row in done.stdout.splitlines()[1:]] == [
        "DIFFER", "DIFFER", "DIFFER", "equal", "equal"]
