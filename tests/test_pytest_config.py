"""The repository's pytest configuration keeps failure reports readable."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING_PROPERTY = '''
from hypothesis import Phase, given, settings, strategies as st


@settings(database=None, phases=[Phase.generate])
@given(st.just(0))
def test_always_fails(x):
    assert x != x
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # Under `filterwarnings = ["error"]`, a warning raised by the hypothesis
    # plugin's report hook ends the session in INTERNALERROR and the report
    # of the failing test is lost.  Plain asserts spare the subprocess the
    # rewriting of every hypothesis module.
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(_FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "--assert=plain",
         str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
