"""The README's library example runs as printed and solves its problem."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out
    # Lane-Emden index 5 with y(1) = sqrt(3)/2: y = (1 + x^2/3)^(-1/2), so y(0) = 1.
    assert abs(namespace["result"].y0 - 1.0) <= 1e-6
