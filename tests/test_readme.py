"""The README's examples run: its library quick start and its example config."""

import re
from pathlib import Path

from spiralflow.config import parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_quick_start_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    # one line per print: the solve, the removal and the critical bracket
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_example_config_parses():
    (doc,) = _blocks("json")
    cfg = parse_config(doc.encode())
    assert cfg.gamma == 2.0 and cfg.axis == "kappa2"
    assert tuple(cfg.eps_schedule) == (0.2, 0.1, 0.05)
    for name in ("grid", "search", "ladder"):
        assert cfg.section(name) is not None
