import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# 12 lines: a 2-line module docstring, a 3-line class docstring, a 1-line
# method docstring, a string that is not a docstring, a comment and a blank
PACKAGE = '''"""A module.
"""
# a comment

class A:
    """A class,
    over three lines.
    """
    def f(self):
        """One line."""
        x = "not a docstring"
        return x
'''


def test_counts_every_line_and_the_lines_without_docstrings(tmp_path):
    (tmp_path / "a.py").write_text(PACKAGE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out == "total 13\nwithout_docstrings 7\n"


def test_an_empty_directory_is_an_error(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"no .py files in {tmp_path}\n"
