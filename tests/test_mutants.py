"""The mutants in mutants.py: each applies once, and the slow check that each is killed."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per mutant; a timeout is reported, not counted as a kill


@pytest.mark.parametrize("path,old,new,tests,reason", MUTANTS, ids=[m[4] for m in MUTANTS])
def test_mutant_applies_once(path, old, new, tests, reason):
    text = (ROOT / "src" / path).read_text()
    assert text.count(old) == 1
    compile(text.replace(old, new), path, "exec")  # a mutant is valid Python
    assert old != new and all((ROOT / test).is_file() for test in tests)


@pytest.mark.slow
def test_every_mutant_is_killed(tmp_path):
    # each mutant runs on a fresh copy of src/, one pytest process at a time; exit
    # status 1 (a test failed) or 2 (the mutant broke collection) counts as a kill
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    problems = []
    for i, (path, old, new, tests, reason) in enumerate(MUTANTS):
        src = tmp_path / f"mutant{i}" / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / path
        target.write_text(target.read_text().replace(old, new, 1))
        env["PYTHONPATH"] = str(src)
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={src}", *(str(ROOT / test) for test in tests)]
        try:
            run = subprocess.run(command, cwd=src.parent, env=env, capture_output=True,
                                 text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"{reason}: timed out after {TIMEOUT_S} s")
            continue
        if run.returncode == 0:
            problems.append(f"{reason}: survived {' '.join(tests)}")
        elif run.returncode not in (1, 2):
            problems.append(f"{reason}: pytest exited {run.returncode}\n{run.stdout[-2000:]}")
    assert not problems, "\n".join(problems)
