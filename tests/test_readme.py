import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_what_it_says(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out == "4\n0\n"
