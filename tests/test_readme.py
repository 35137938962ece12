"""The README's library example runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    lines = printed.getvalue().splitlines()
    assert float(lines[0]) > 1 - 1e-9
    delta, mean, net = map(float, lines[-1].split())
    assert delta == 0.1 and abs(mean - 0.9915) < 1e-3 and abs(net - 0.985) < 1e-3
