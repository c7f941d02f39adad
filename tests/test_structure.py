"""One implementation per idea: the derivative stencils and the m-integral
live in measures, and every other module calls them from there; the CD
density generator has one solution path, the exact piecewise rotation."""
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "obatalab"


def test_stencils_and_quadrature_only_in_measures():
    pattern = re.compile(r"np\.(gradient|trapezoid)\(")
    others = [path for path in sorted(SRC.glob("*.py")) if path.name != "measures.py"]
    assert len(others) >= 7
    hits = [
        f"{path.name}:{i}"
        for path in others
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_generator_has_no_step_integrator():
    text = (SRC / "measures.py").read_text()
    assert "_rk4" not in text
    assert "def _rotation_flow(" in text
