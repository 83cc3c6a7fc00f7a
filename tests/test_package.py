import subprocess
import sys


def _modules_after(statement):
    """Names in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    code = f"import sys; {statement}; print('\\n'.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_rangeseg_loads_only_what_it_uses():
    loaded = _modules_after("import egohand.rangeseg")
    assert "egohand.rangeseg" in loaded
    assert loaded & {"egohand.model", "egohand.nnkit", "egohand.synth", "scipy"} == set()


def test_package_root_loads_no_submodule():
    loaded = _modules_after("import egohand")
    assert "egohand" in loaded
    assert sorted(m for m in loaded if m.startswith("egohand.")) == []
