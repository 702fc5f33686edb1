"""`tools/report_digests.py --check`: one command for the byte-identity check."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"
LINES = ["aa  analyze one", "bb  ir one", "cc  reproduce-examples"]


@pytest.fixture()
def digests(monkeypatch):
    spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rows = list(LINES)
    monkeypatch.setattr(module, "digest_lines", lambda: iter(rows))
    return module, rows


@pytest.mark.parametrize("change, code", [
    (lambda rows: None, 0),
    (lambda rows: rows.__setitem__(1, "bd  ir one"), 1),
    (lambda rows: rows.__setitem__(1, "exit 2  ir one"), 1),
    (lambda rows: rows.pop(), 1),
    (lambda rows: rows.append("dd  stable one"), 1),
])
def test_check_exits_1_on_any_difference(digests, tmp_path, capsys, change, code):
    module, rows = digests
    saved = tmp_path / "before.txt"
    saved.write_text("\n".join(LINES) + "\n")
    change(rows)
    assert module.main(["--check", str(saved)]) == code
    out, err = capsys.readouterr()
    assert out.splitlines() == rows
    assert ("all 3 digests match" in err) == (code == 0)


def test_nonzero_exit_fails_the_check_even_when_saved(digests, tmp_path, capsys):
    module, rows = digests
    rows[0] = "exit 3  analyze one"
    saved = tmp_path / "before.txt"
    saved.write_text("\n".join(rows) + "\n")
    assert module.main(["--check", str(saved)]) == 1
    assert "nonzero exit: exit 3  analyze one" in capsys.readouterr().err


def test_without_check_only_prints(digests, capsys):
    module, rows = digests
    assert module.main([]) == 0
    assert capsys.readouterr().out.splitlines() == LINES
