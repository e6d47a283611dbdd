"""The repository's own check scripts, run as they are run by hand."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_src_has_a_caller():
    # tools/callers.py prints each name of src/ that nothing calls, reads
    # or sets; "no function exists without a caller" means it prints none
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "callers.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def test_bench_pairs_marks_a_dirty_checkout(tmp_path, monkeypatch):
    # a directory checkout with uncommitted changes to tracked files is not
    # what its HEAD names, so its id carries "-dirty"; untracked files
    # (build and run leftovers) do not count
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_pairs._version(tmp_path) is None   # not in a work tree
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t",
           "-c", "user.email=t@example.org", "-c", "commit.gpgsign=false"]
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("a\n")
    for args in (["init", "-q"], ["add", "tracked.txt"],
                 ["commit", "-q", "-m", "one file"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    (tmp_path / "untracked.txt").write_text("b\n")
    assert bench_pairs._version(tmp_path) == head
    tracked.write_text("changed\n")
    assert bench_pairs._version(tmp_path) == head + "-dirty"
