"""The line-count rule of ``benchmarks/code_lines.py`` on a fixed
snippet: blank lines, comment lines and docstrings do not count; every
other line does, strings that are not docstrings included."""

import importlib.util
import pathlib

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


# A comment line.
class Box:
    """Class docstring."""

    size = 3

    def grow(self, n):
        """Method docstring,
        over two lines.
        """
        text = """not a docstring:
        an assignment"""
        return self.size + n, text
'''


def _load_tool():
    path = pathlib.Path(__file__).parents[2] / "benchmarks" / \
        "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


cl = _load_tool()


def test_counts_code_lines_of_a_fixed_snippet():
    # import, class, size, def, the two-line string, return.
    assert cl.count_source(SNIPPET) == 7


def test_counts_a_directory_and_a_file(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(SNIPPET)
    (pkg / "b.py").write_text("x = 1\n\n# done\n")
    (pkg / "notes.txt").write_text("x = 1\n")
    assert cl.main([str(pkg), str(pkg / "b.py")]) == 0
    assert capsys.readouterr().out.split() == [
        "8", str(pkg), "1", str(pkg / "b.py")]
