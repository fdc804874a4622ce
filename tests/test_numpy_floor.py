"""The package declares numpy>=1.24, so src/crackdet must not call a function
that only numpy 2 has."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
NUMPY2_ONLY = ("vecdot", "matvec", "vecmat", "unstack", "astype")
# np.vecdot / numpy.linalg.vecdot / np.astype(...) ..., and the same names
# pulled in by a "from numpy[.linalg] import" line. Array methods such as
# x.astype(...) are numpy-1 API and do not match.
_CALL = re.compile(r"\b(?:np|numpy)\.(?:linalg\.)?(%s)\b" % "|".join(NUMPY2_ONLY))
_IMPORT = re.compile(r"^\s*from\s+numpy(?:\.linalg)?\s+import\s+(.+)$", re.MULTILINE)


def numpy2_only_uses(text):
    found = [m.group(0) for m in _CALL.finditer(text)]
    for m in _IMPORT.finditer(text):
        names = re.findall(r"\w+", m.group(1))
        found += [f"from numpy import {n}" for n in names if n in NUMPY2_ONLY]
    return found


def test_floor_is_declared():
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("text, hits", [
    ("s = np.vecdot(a, b)", 1),
    ("y = numpy.linalg.vecdot(a, b) + np.matvec(m, v)", 2),
    ("parts = np.unstack(x); z = np.astype(x, np.float32)", 2),
    ("from numpy import vecmat, zeros", 1),
    ("z = x.astype(np.float32); w = a @ b; np.add(a, b)", 0),
])
def test_detector_catches_numpy2_only_calls(text, hits):
    assert len(numpy2_only_uses(text)) == hits


def test_src_uses_no_numpy2_only_function():
    files = sorted((ROOT / "src" / "crackdet").glob("*.py"))
    assert files
    bad = {f.name: numpy2_only_uses(f.read_text()) for f in files}
    assert not {name: hits for name, hits in bad.items() if hits}
