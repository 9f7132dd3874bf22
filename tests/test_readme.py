"""The CLI block of README.md, run as written, and the figures it states."""

import re
import shlex
from pathlib import Path

from polyseg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_text() -> str:
    return README.read_text(encoding="utf-8")


def cli_block() -> list[list[str]]:
    """The argv of each `polyseg` command in the first code block under "## CLI"."""
    block = re.search(r"^## CLI\n.*?^```\n(.*?)^```", readme_text(), re.S | re.M)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(c[0] == "polyseg" for c in commands if c)
    return [c[1:] for c in commands if c]


def test_cli_block_runs_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = cli_block()
    assert [c[0] for c in commands] == ["synth", "segment", "synth", "gradcheck"]
    gradcheck = commands[-1]

    for argv in commands[:-1]:
        assert main(argv) == 0, argv
    run_dir = tmp_path / "run"
    for name in ("trace.csv", "final_polygon.txt", "final_mask.pgm", "overlay.svg", "energy.svg"):
        assert (run_dir / name).is_file(), name
    assert len(list(run_dir.glob("snapshot_*.svg"))) == 4
    capsys.readouterr()

    assert main(gradcheck) == 0
    assert "max relative error: 0.0032 " in capsys.readouterr().out
    noisy = [("noisy.pgm" if a == "clean.pgm" else a) for a in gradcheck]
    assert main(noisy) == 3
    assert "max relative error: 0.3896 " in capsys.readouterr().out

    # the sentence after the block states the same figures
    prose = " ".join(readme_text().split())
    assert ("reports a maximum relative error of 0.0032 and exits 0; "
            "on `noisy.pgm` it reports 0.39 and exits 3") in prose
