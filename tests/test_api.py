"""The package surface: what ``import dnmf`` exports, and what the bench traces."""
import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dnmf

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(dnmf.__file__).resolve().parents[1]

USER_API = {
    "EPS",
    "__version__",
    "is_divergence",
    "ConvergenceError",
    "DnmfModel",
    "TrainConfig",
    "FilterState",
    "train",
    "filter_stream",
    "map_objective",
    "lag_fit_divergence",
    "concat_models",
    "stft",
    "istft",
    "output_snr",
    "mix_at_snr",
    "read_wav",
    "write_wav",
}

# Solver internals and helpers: importable from their modules, not the root.
MODULE_ONLY = {
    "nonneg_matrix": "dnmf.core",
    "normalize_columns": "dnmf.core",
    "is_nmf_update_w": "dnmf.plca",
    "wiener_reconstruct": "dnmf.dsp",
}


def _readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def _root_imports(source: str) -> set[str]:
    """Names a source imports with ``from dnmf import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "dnmf" and node.level == 0
        for alias in node.names
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_root_exports_exactly_the_user_api():
    assert sorted(dnmf.__all__) == sorted(USER_API)
    for name in dnmf.__all__:
        assert getattr(dnmf, name) is not None


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_internal_name_leaves_root_but_stays_in_its_module(name):
    module = importlib.import_module(MODULE_ONLY[name])
    assert not hasattr(dnmf, name)
    assert name in module.__all__
    assert callable(getattr(module, name))


def test_star_import_is_clean_under_warnings_as_errors():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "from dnmf import *; print(len(dir()))"],
        capture_output=True, text=True, env=_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _top_level_modules(code: str) -> set[str]:
    """The top-level names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    report = "import sys; print(*sorted({m.partition('.')[0] for m in sys.modules}))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                          capture_output=True, text=True, env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_adds_only_the_standard_library_and_numpy():
    # The cold start of `python -m dnmf.cli` is all of the tracking
    # benchmark's set-up time, so no third-party import may ride along.
    added = _top_level_modules("import dnmf.cli") - _top_level_modules("pass")
    outside = {m for m in added if m not in sys.stdlib_module_names}
    assert outside <= {"numpy", "dnmf"}, sorted(outside)


def test_demos_and_readme_import_only_the_root_api():
    sources = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    sources += _readme_python_blocks()
    imported = set().union(*(_root_imports(s) for s in sources))
    assert imported, "no `from dnmf import` found in demos/ or README.md"
    assert imported <= set(dnmf.__all__), sorted(imported - set(dnmf.__all__))


def test_readme_quick_start_runs_as_written():
    # Every block runs on its own, in a fresh scope.
    scopes = []
    for block in _readme_python_blocks():
        scope: dict = {}
        exec(compile(block, "README.md", "exec"), scope)
        scopes.append(scope)
    fit, separation, static = scopes
    assert fit["h_f"].shape == (8, 200)
    y1, y2 = separation["y1"], separation["y2"]
    n = len(y1)
    assert y2.shape == (n,) and n <= len(separation["mixture"])
    assert dnmf.output_snr(separation["tone"][:n], y1) > 10.0
    assert dnmf.output_snr(separation["hum"][:n], y2) > 10.0
    assert static["h"].shape == (4, 200)


def test_bench_layer_functions_resolve_in_src(monkeypatch):
    # Load the bench's tracer read-only: no bytecode is written under bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = list(tracer.LAYER_FUNCTIONS) + [("dnmf." + tracer.ROOT.rsplit(".", 1)[0], "main")]
    for mod_name, func_name in pairs:
        fn = getattr(importlib.import_module(mod_name), func_name, None)
        assert callable(fn), f"{mod_name}.{func_name} is gone"
        assert fn.__module__ == mod_name, f"{mod_name}.{func_name} is defined in {fn.__module__}"
        assert Path(inspect.getsourcefile(fn)).resolve().is_relative_to(SRC / "dnmf")


def _names_read(tree: ast.AST) -> set[str]:
    """Identifiers a tree reads as a ``Name`` or an ``Attribute``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_submodule_export_has_a_caller():
    """Each name in a ``dnmf`` submodule's ``__all__`` is used somewhere else.

    A use is a ``Name`` or ``Attribute`` in ``src/dnmf`` outside the name's
    own definition (imports and the ``__init__`` re-export do not count), a
    ``Name``, ``Attribute`` or string in ``bench/*.py``, or a word in
    ``pyproject.toml``.  ``dsp.wiener_reconstruct`` passes only through the
    string binding in ``bench/tracer.py``, which traces it as a layer.
    """
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    outside = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    for tree in map(parse, sorted((ROOT / "bench").glob("*.py"))):  # parsed, not imported
        outside |= _names_read(tree)
        outside |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                    and isinstance(n.value, str)}
    # (module, the name a top-level statement defines or None, the names it reads)
    statements = [
        (path.stem, getattr(node, "name", None), _names_read(node))
        for path in sorted((SRC / "dnmf").glob("*.py"))
        for node in parse(path).body
    ]
    dead = [
        f"dnmf.{module}.{name}"
        for module in sorted({m for m, _, _ in statements} - {"__init__"})
        for name in importlib.import_module(f"dnmf.{module}").__all__
        if name not in outside.union(*(
            reads for m, defines, reads in statements if (m, defines) != (module, name)
        ))
    ]
    assert dead == []


def test_scalar_checks_live_in_core_only():
    """Only ``dnmf.core`` tests whether a value is an integer.

    Any other ``src/dnmf`` module that imports ``numbers``, reads
    ``Integral``, ``np.integer`` or ``is_integer``, calls ``isinstance``
    against ``int`` or ``bool``, or defines a function named for an integer
    check (``_is_json_int``) fails: sizes, counts, seeds and hops go through
    ``core._checked_int`` and exponents through ``core._checked_exponent``.
    """
    found = []
    for path in sorted((SRC / "dnmf").glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            hit = False
            if isinstance(node, ast.Import):
                hit = any(alias.name == "numbers" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "numbers"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hit = re.search(r"(^|_)int($|_)", node.name) is not None
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                hit = bool({"int", "bool"} & _names_read(node.args[-1]))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                hit = bool({"Integral", "integer", "is_integer"} & _names_read(node))
            if hit:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node).splitlines()[0]}")
    assert found == []


def _isfinite_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and "isfinite" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_array_checks_live_in_core_only():
    """Only ``dnmf.core`` checks arrays against each other's shape or for
    finiteness throughout.

    Any other ``src/dnmf`` module fails that compares one ``.shape``
    attribute with another, or that reduces ``np.isfinite`` over an array
    with ``.all()`` or ``np.all``: such checks go through
    ``core._checked_matrix`` and ``core._checked_arrays``.
    """
    found = []
    for path in sorted((SRC / "dnmf").glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            hit = False
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                hit = sum(getattr(o, "attr", None) == "shape" for o in operands) >= 2
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "all":
                hit = any(_isfinite_call(a) for a in (node.func.value, *node.args))
            if hit:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node).splitlines()[0]}")
    assert found == []


def test_solve_beta_is_the_only_simplex_update():
    """``solve_beta`` writes the simplex update at every call site.

    The test fails if ``dnmf.statespace`` binds ``_simplex_update`` again (a
    second update path that recomputes the denominators from the root), or
    if any ``src/dnmf`` call of ``solve_beta`` passes no ``out``, as a third
    argument or by keyword, and so takes the root without its update.
    """
    found, calls = [], 0
    for path in sorted((SRC / "dnmf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "solve_beta" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                calls += 1
                hit = len(node.args) < 3 and all(k.arg != "out" for k in node.keywords)
            elif path.stem == "statespace":
                name = getattr(node, "name", None) or getattr(node, "id", None)
                stored = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                hit = name == "_simplex_update" and (stored or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
            else:
                hit = False
            if hit:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node).splitlines()[0]}")
    assert calls >= 2 and found == []


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((SRC / "dnmf" / f"{module}.py").read_text(encoding="utf-8"))
    return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}


def test_soft_mask_is_the_only_wiener_gain():
    """Both separation paths take the Wiener gain from ``dsp._soft_mask``.

    The test fails if ``wiener_reconstruct`` or ``separate_sources`` stops
    calling it, or if ``dnmf.experiments`` reads ``EPS`` or calls ``maximum``
    or ``divide``: a second floor and divide of the mask.
    """
    for module, name in (("dsp", "wiener_reconstruct"), ("experiments", "separate_sources")):
        assert "_soft_mask" in _names_read(_functions(module)[name]), name
    tree = ast.parse((SRC / "dnmf" / "experiments.py").read_text(encoding="utf-8"))
    assert not {"EPS", "maximum", "divide"} & _names_read(tree)


def test_filter_frame_starts_every_order_from_one_prediction():
    """``filter_frame`` builds its start and prior base once, at every order:
    no ``if``/``else`` statement (an order-0 start) and one ``_INIT_FLOOR`` read."""
    body = _functions("statespace")["filter_frame"]
    assert not [n for n in ast.walk(body) if isinstance(n, ast.If) and n.orelse]
    assert sum(getattr(n, "id", None) == "_INIT_FLOOR" for n in ast.walk(body)) == 1
