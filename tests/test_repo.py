import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # build outputs (generated C, egg-info, caches) are matched by
    # .gitignore and must not be committed
    try:
        top = git("rev-parse", "--show-toplevel")
    except FileNotFoundError:
        pytest.skip("git not installed")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout.split() == []
