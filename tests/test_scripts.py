"""Tests for the reproduction scripts under ``scripts/``."""
import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_tables_matches_stored_errors(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "reproduce_tables", SCRIPTS / "reproduce_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    path = tmp_path / "tables.csv"
    assert script.main(["--csv", str(path)]) == 0
    assert "wrote 53 rows" in capsys.readouterr().out
    rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 53
    for row in rows:
        stored = float(row["stored_re"])
        assert float(row["measured_re"]) <= max(10.0 * stored, 1e-12), row
