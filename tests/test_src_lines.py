import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 12 physical lines: a two-line module docstring, a blank line, a comment, a class with a one-line docstring,
# a method whose docstring spans two lines, and a multi-line string that is not a docstring
_MODULE = '''"""A module.
"""

# a comment
class Box:
    """A box."""

    def size(self):
        """Its size,
        in units."""
        return len("""a
b""")  # trailing comment
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # code: class Box, def size, and the two lines of the return statement
    assert _tool().count(_MODULE) == (12, 4)


def test_the_tree_rows_add_up_to_the_total(tmp_path, capsys):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text(_MODULE)
    (tmp_path / "src" / "pkg" / "b.py").write_text("x = 1\n\n")
    assert _tool().main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "physical", "code"], ["pkg/a.py", "12", "4"], ["pkg/b.py", "2", "1"],
                    ["total", "14", "5"]]


def test_this_checkout_counts_every_package_module(capsys):
    assert _tool().main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    modules = sorted(str(path.relative_to(ROOT / "src")) for path in (ROOT / "src").rglob("*.py"))
    assert [row[0] for row in rows[:-1]] == modules and rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(row[1]) for row in rows[:-1]) > int(rows[-1][2]) > 0
