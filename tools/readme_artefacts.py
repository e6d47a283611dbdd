"""Run every CLI example of README.md at a reduced scale; print artefact digests.

    python3 tools/readme_artefacts.py

Each ``nbbmlab ...`` line of the README's shell block runs in-process with
the same flags, with sizes (--n, --replicas, --paths) and times (--t,
--save, --horizon, --burn-in, --log-interval) scaled down.  All examples
run from one fresh temporary working directory, so the relative --out
paths, which resolved-config.json records, are the same on every checkout;
the directory is removed afterwards.  One line per example: exit code,
SHA-256 of its manifest.json (or "-" when none was written) and the
reduced command.
Running this on two checkouts and diffing the outputs shows whether a change
altered any fixed-seed artefact.
"""

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIZE_DIVISOR = {"--n": 16, "--replicas": 10, "--paths": 10}
TIME_DIVISOR = 5
TIME_FLAGS = ("--t", "--save", "--horizon", "--burn-in", "--log-interval")


def readme_examples(readme: Path) -> list:
    """argv lists of the nbbmlab commands in the README's ```sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    out = []
    for line in text.splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "nbbmlab":
            out.append(words[1:])
    return out


def _scale(value: str, fn) -> str:
    return ",".join(fn(tok) for tok in value.split(","))


def reduced(argv: list) -> list:
    out = list(argv)
    for i, flag in enumerate(out[:-1]):
        if flag in SIZE_DIVISOR:
            div = SIZE_DIVISOR[flag]
            out[i + 1] = _scale(out[i + 1], lambda v: str(max(2, int(v) // div)))
        elif flag in TIME_FLAGS:
            out[i + 1] = _scale(out[i + 1], lambda v: f"{float(v) / TIME_DIVISOR:g}")
    return out


def _out_dir(argv: list, sub: str) -> Path:
    return Path(argv[argv.index("--out") + 1] if "--out" in argv else f"out/{sub}")


def main() -> None:
    examples = readme_examples(ROOT / "README.md")
    sys.path.insert(0, str(ROOT / "src"))
    from nbbmlab import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="readme-artefacts-") as work:
        os.chdir(work)
        try:
            for argv in examples:
                print(_run_example(cli, argv), flush=True)
        finally:
            os.chdir(home)


def _run_example(cli, argv: list) -> str:
    """The reduced example's line: exit code, manifest digest, command."""
    argv = reduced(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
    except Exception as exc:  # an uncaught exception exits 1 from the shell
        code = f"1 ({type(exc).__name__}: {exc})"
    manifest = _out_dir(argv, argv[0]) / "manifest.json"
    digest = hashlib.sha256(manifest.read_bytes()).hexdigest() \
        if code == 0 and manifest.exists() else "-"
    return f"exit={code} manifest={digest} nbbmlab {shlex.join(argv)}"


if __name__ == "__main__":
    main()
