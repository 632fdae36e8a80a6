import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tables(text):
    """The rows under each 'len' header line, split into fields."""
    found, rows = [], None
    for line in text.splitlines():
        if line.startswith("len "):
            rows = []
            found.append(rows)
        elif rows is not None and re.match(r"\s*\d+ ", line):
            rows.append(line.split())
        else:
            rows = None
    return found


def test_reproduce_tables(capsys):
    assert load_script("reproduce_tables").main(["--max-length", "13"]) == 0
    triad, tribes = tables(capsys.readouterr().out)
    assert [int(r[0]) for r in triad] == [1, 2, 3]
    assert [int(r[0]) for r in tribes] == list(range(1, 14))
    # on a loopless graph closed 3-walks and 3-orbits are the triangles
    assert tribes[2][3] == tribes[2][6] == tribes[2][7] == "13.24%"
    # the orbit column runs to the maximum length, like the walk column
    assert tribes[12][7] == "47.92%"


def test_montecarlo_demo(capsys):
    code = load_script("montecarlo_demo").main(
        ["--samples", "4", "--batches", "4", "--sample-size", "16",
         "--max-length", "5", "--target", "0.05"])
    assert code == 0
    (rows,) = tables(capsys.readouterr().out)
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]

