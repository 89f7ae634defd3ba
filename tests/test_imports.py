"""Every name that a package module, a script or a test imports is used in it,
no package module imports another's private (underscore) name, every public
function, class and method of the package has a caller outside
the tests, every record field of the package is read outside the tests, every
parameter of a package function is read in its body, importing the CLI
loads no SciPy subpackage and no SciPy array-API shim, a dense run loads no
SciPy module at all (``kernels`` calls the LAPACK that ``numpy.linalg``
links), so a process maps one OpenBLAS and a dense solve adds little to its
peak RSS, a LAPACK without the dense routines raises a typed error,
``numpy.random`` loads only when a cluster cell draws extra centres, and a
mesh bubble's shape factor leaves ``numpy.ma`` unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bubblelab import kernels
from bubblelab.errors import BubbleLabError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bubblelab"
SOURCES = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "tests")
           for path in sorted(folder.glob("*.py"))]
# code that may call the package; the tests do not count as callers
CALLERS = [path for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
           for path in sorted(folder.glob("*.py"))]


def unused_imports(source: str) -> list:
    """Imported names that no expression, string annotation or ``__all__`` uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # quoted annotations ("VoxelGrid") and the names listed in __all__
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            used.add(node.value)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_sources_found():
    assert len(SOURCES) > 10


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nx: 'c'\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """Underscore names imported from the package (``from .x import _y``)."""
    return sorted(f"{node.module or '.'}.{alias.name} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("bubblelab"))
                  for alias in node.names if alias.name.startswith("_"))


def test_detects_a_private_import():
    source = ("from .a import b, _c\nfrom bubblelab.d import _e\n"
              "from numpy import _f\nfrom __future__ import annotations\n")
    assert private_imports(source) == ["a._c (line 1)", "bubblelab.d._e (line 2)"]


def test_no_package_module_imports_a_private_name():
    private = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
               for name in private_imports(path.read_text())]
    assert private == []


def referenced_names(node) -> set:
    """Identifiers a syntax tree refers to, outside the body that defines each.

    Names, attributes, imported names and dotted identifier strings (such as
    ``"VoxelGrid.cover"`` in a table of entry points) all count; a plain string
    (``kind == "constant"``) and a function or class referring to itself do not.
    """
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.alias):
        return {node.name.split(".")[-1]}
    names = set()
    if isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
        names.update(part for part in node.value.split(".") if part.isidentifier())
    for child in ast.iter_child_nodes(node):
        names |= referenced_names(child)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.discard(node.name)
    return names


def public_definitions(source: str) -> list:
    """Public module-level functions and classes, and the public methods of
    public classes, as (qualified name, name) pairs."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def test_detects_an_uncalled_definition():
    source = "def f():\n    return f()\n\nclass C:\n    def m(self):\n        return g\n"
    names = referenced_names(ast.parse(source))
    assert [q for q, name in public_definitions(source) if name not in names] == ["f", "C", "C.m"]
    assert {"f", "C"} <= referenced_names(ast.parse("f()\nx = C\ny = 'C.m'\n"))
    # a dotted string names a method; a plain one is data
    assert "m" in referenced_names(ast.parse("y = 'C.m'\n"))
    assert "m" not in referenced_names(ast.parse("kind = 'm'\nif kind == 'm':\n    pass\n"))


def test_every_public_definition_has_a_caller():
    called = set()
    for path in CALLERS:
        called |= referenced_names(ast.parse(path.read_text()))
    uncalled = [f"{path.name}: {qualified}" for path in sorted(PACKAGE.glob("*.py"))
                for qualified, name in public_definitions(path.read_text())
                if name not in called]
    assert uncalled == []


def record_fields(source: str) -> list:
    """Class-level annotated fields of module-level classes, as (qualified
    name, name) pairs."""
    return [(f"{node.name}.{item.target.id}", item.target.id)
            for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def attributes_read(tree) -> set:
    """Attribute names a syntax tree reads (``x.name`` loaded, not assigned)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


# fields kept although no caller reads them, each with its reason
UNREAD_FIELDS = {
    # the sphere bubble's icosphere is the only mesh a volume run builds, and
    # the benchmark's trace (perfbench/workloads.py) requires every converge
    # run to build one; drop both when the trace stops requiring it
    "BubbleSpec.boundary_mesh",
}


def test_detects_an_unread_field():
    source = "class R:\n    x: int\n    y: float = 0.0\n\nr = R(1)\nr.y\nr.x = 2\n"
    read = attributes_read(ast.parse(source))
    assert [q for q, name in record_fields(source) if name not in read] == ["R.x"]


def test_every_record_field_is_read():
    read = set()
    for path in CALLERS:
        read |= attributes_read(ast.parse(path.read_text()))
    unread = [f"{path.name}: {qualified}" for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in record_fields(path.read_text())
              if name not in read and qualified not in UNREAD_FIELDS]
    assert unread == []


def unread_parameters(source: str) -> list:
    """Parameters of every function and lambda, nested ones and methods
    included, that its body never names, as ``function.parameter`` strings.

    A method's receiver (``self``, ``cls``) does not count: a zero-argument
    ``super()`` reads it without naming it.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{getattr(node, 'name', 'lambda')}.{name}" for name in params
                       if name not in named and name not in ("self", "cls")]
    return sorted(unread)


def test_detects_an_unread_parameter():
    source = ("def f(a, b, *c, d=1, **e):\n    return a + d\n\n"
              "class C:\n    def m(self, x):\n        return lambda y: x\n\n"
              "def g(a):\n    def h():\n        return a\n    return h\n")
    assert unread_parameters(source) == ["f.b", "f.c", "f.e", "lambda.y"]


def test_every_parameter_is_read():
    unread = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unread_parameters(path.read_text())]
    assert unread == []


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that finds the package."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def loaded_after(code: str, module: str) -> bool:
    """Whether running ``code`` in a fresh interpreter loads ``module``."""
    out = run_fresh(f"{code}\nimport sys\nprint({module!r} in sys.modules)")
    return out.splitlines()[-1] == "True"


# scipy modules that start-up must not load, each with why no run needs it
UNLOADED_AT_START = {
    "scipy": "no run needs the package; its __init__ loads subprocess, sysconfig, "
             "locale and selectors (1.3 MiB of RSS)",
    "scipy._lib": "only SciPy's package __init__ and its subpackages import it",
    "scipy.sparse": "the volume solve is the package's own COCG",
    "scipy.interpolate": "only a grid density interpolates, importing it on demand",
    "scipy.fft": "the lattice convolution runs on numpy.fft",
    "scipy.special": "only the Mie oracle uses it, importing it on demand",
    "scipy.linalg": "dense solves call the LAPACK that numpy.linalg links",
    "scipy.linalg._fblas": "zsymm comes from numpy's OpenBLAS; this module maps a "
                           "second OpenBLAS (about 4 MiB of RSS)",
    "scipy.linalg._flapack": "zsytrf, zsycon and zsytrs come from numpy's LAPACK",
    "scipy._lib._array_api": "its clone of numpy loads numpy.f2py, numpy.testing, "
                             "numpy.ma and numpy.random, about 0.3 s of start-up",
    "scipy.spatial": "importing it costs about 7 MiB of RSS, more than a small run's "
                     "5 % peak-memory bound, so spatial hashing stays numpy-only",
}


@pytest.mark.parametrize("module", sorted(UNLOADED_AT_START))
def test_cli_import_leaves_scipy_module_unloaded(module):
    assert not loaded_after("import bubblelab.cli", module), UNLOADED_AT_START[module]


def test_dense_run_loads_no_scipy_module(tmp_path):
    # a surface cluster's point solve and both surface comparators (the
    # Medium surface system and the High-regime Dirichlet BEM) are dense
    # LDL^T solves, all through numpy's LAPACK
    code = "import sys\nfrom bubblelab.cli import cli\n"
    for name in ("medium_surface", "high_surface"):
        config, out = str(ROOT / "configs" / f"{name}.json"), str(tmp_path / name)
        code += f"assert cli(['converge', '--config', {config!r}, '--out', {out!r}]) == 0\n"
    code += "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
    assert run_fresh(code).splitlines()[-1] == "[]"


# one factorization and two solves of a 768 x 768 kernel matrix
DENSE_SOLVE = ("import numpy as np\nfrom bubblelab.kernels import DirectSystem, pair_kernel\n"
               "z = np.random.default_rng(0).uniform(size=(768, 3))\n"
               "a = pair_kernel(z, 3.0, -0.05)\nb = np.ones(768, dtype=complex)\n"
               "def dense_solve():\n"
               "    system = DirectSystem(a, 1e-8)\n"
               "    system.solve(b)\n"
               "    system.solve(1j * b)\n")


def openblas_libraries(code: str) -> list:
    """The OpenBLAS libraries a fresh interpreter maps after ``code``."""
    out = run_fresh(code + "print(sorted({line.split()[-1] for line in open('/proc/self/maps')"
                    " if 'openblas' in line.lower()}))")
    return ast.literal_eval(out.splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/maps")
def test_dense_solve_maps_one_openblas():
    # the routines resolve in the libraries numpy already maps: no second
    # OpenBLAS (SciPy's) is loaded beside numpy's
    at_import = openblas_libraries("import numpy\n")
    if not at_import:
        pytest.skip("this NumPy links no OpenBLAS")
    assert len(at_import) == 1
    assert openblas_libraries(DENSE_SOLVE + "dense_solve()\n") == at_import


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
def test_dense_solve_raises_peak_rss_by_at_most_3_mib():
    # the 9 MiB matrix is built before measuring; the factorization adds its
    # workspace (0.75 MiB) and OpenBLAS's buffers: 1.7 MiB measured at one
    # BLAS thread and 2.1 at two, against 5.6 and 5.8 MiB when a second
    # OpenBLAS was loaded for it
    code = (DENSE_SOLVE + "import resource\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "dense_solve()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    assert int(run_fresh(code).splitlines()[-1]) <= 3 * 1024


def test_unresolved_lapack_routine_raises_a_typed_error(monkeypatch):
    monkeypatch.setattr(kernels, "_SYMBOL_FORMS", (("no_such_", "_", np.int32),))
    monkeypatch.setattr(kernels, "_lapack", None)
    with pytest.raises(BubbleLabError, match="no_such_zsytrf_") as err:
        kernels.DirectSystem(np.eye(2, dtype=complex), 1e-10).solve(np.ones(2))
    assert np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] in str(err.value)
    assert kernels._lapack is None  # nothing half-resolved is kept


def test_k0_volume_run_loads_no_scipy_module(tmp_path):
    # K = 0 volume clusters solve on their lattice by FFT and the comparator
    # is the volume solve: nothing factors a dense matrix
    config = str(ROOT / "configs" / "medium_near_resonance.json")
    code = ("import sys\nfrom bubblelab.cli import cli\n"
            f"assert cli(['converge', '--config', {config!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    assert run_fresh(code).splitlines()[-1] == "[]"


def skip_if_numpy_loads_random():
    if loaded_after("import numpy", "numpy.random"):
        pytest.skip("this NumPy loads numpy.random with numpy itself")


def test_k0_convergence_run_leaves_numpy_random_unloaded(tmp_path):
    # K = 0: every cell holds its centre alone, so no cluster build draws
    skip_if_numpy_loads_random()
    config = str(ROOT / "configs" / "medium_near_resonance.json")
    code = ("from bubblelab.cli import cli\n"
            f"assert cli(['converge', '--config', {config!r}, '--out', {str(tmp_path)!r}]) == 0")
    assert not loaded_after(code, "numpy.random")


def test_k1_cluster_build_loads_numpy_random():
    # K = 1: every cell draws one extra centre, so the check above can fail
    skip_if_numpy_loads_random()
    code = ("from bubblelab.cluster import BoxDomain, DensityField, build_volumetric\n"
            "build_volumetric(BoxDomain(size=(1, 1, 1)), DensityField('constant', 1.0),\n"
            "                 a=0.002, s=0.7, t=0.3, d_min=0.5)")
    assert loaded_after(code, "numpy.random")


def test_cube_bubble_leaves_numpy_ma_unloaded():
    # np.unique with no return flags imports numpy.ma on NumPy >= 2.3 (about
    # 1.2 MiB of RSS); the shape factor's pair merges sort instead
    code = "from bubblelab.materials import BubbleSpec\nBubbleSpec.cube()"
    assert not loaded_after(code, "numpy.ma")
