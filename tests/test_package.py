import subprocess
import sys
import types
from pathlib import Path

import locdecomp

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    for name in locdecomp.__all__:
        assert getattr(locdecomp, name) is not None, name


def test_exports_match_the_imported_public_names():
    imported = {name for name, value in vars(locdecomp).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(locdecomp.__all__) == len(set(locdecomp.__all__))
    assert set(locdecomp.__all__) == imported


def test_failing_property_test_is_reported_under_the_project_settings(tmp_path):
    # on a failure hypothesis writes a patch file through libcst, which imports
    # the deprecated mypy_extensions.TypedDict; the "error" warning filter must
    # not turn that into an INTERNALERROR that ends the session
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert " 1 failed in " in proc.stdout.splitlines()[-1]
