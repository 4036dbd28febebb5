"""The README's library quickstart runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_and_finds_opt_15(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    # the null basis is m x n: one row per basis vector of the 5x5 grid
    assert (ns["null_basis"].rows, ns["null_basis"].cols) == (2, 25)
    opt, witness = ns["exact_by_nullspace"](ns["gamma"], ns["null_basis"])
    assert opt == 15 and witness.weight == 15
    assert capsys.readouterr().out.splitlines()[-1].startswith("(15, BitVec(25, ")
