"""The public surface: ``__all__`` is the ``_PUBLIC`` table of the package."""

import os
import subprocess
import sys
import types

import chabauty_rz

TABLE = [name for names in chabauty_rz._PUBLIC.values() for name in names]


def test_all_is_the_table_without_duplicates():
    assert chabauty_rz.__all__ == TABLE
    assert len(set(TABLE)) == len(TABLE)


def test_every_name_resolves_to_its_module_and_none_is_a_module():
    for module, names in chabauty_rz._PUBLIC.items():
        for name in names:
            value = getattr(chabauty_rz, name)
            assert value is getattr(sys.modules[f"chabauty_rz.{module}"], name), name
            assert not isinstance(value, types.ModuleType), name


def test_the_package_binds_nothing_public_beyond_the_table_but_modules():
    extra = {name for name in vars(chabauty_rz)
             if not name.startswith("_") and name not in TABLE}
    assert all(isinstance(getattr(chabauty_rz, name), types.ModuleType) for name in extra)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from chabauty_rz import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(chabauty_rz.__all__)


SRC = os.path.dirname(os.path.dirname(chabauty_rz.__file__))
BENCH = os.path.join(os.path.dirname(SRC), "bench")


def fresh(script):
    """Run ``script`` in a fresh interpreter, so that modules the test session
    loaded do not count, and return what it printed."""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_the_same_modules_in_the_same_order():
    script = (
        "import sys\n"
        "import chabauty_rz\n"
        "print(' '.join(m for m in sys.modules if m.startswith('chabauty_rz.')))\n"
    )
    # the table's modules; plot loads on the first plot command
    assert fresh(script).split() == [
        f"chabauty_rz.{name}" for name in (
            "rationals", "subgroups", "metric", "earring", "denjoy", "oracle",
            "equivalence", "literals", "suites", "cli",
        )
    ]


#: Modules that load on first use, not on ``import chabauty_rz``.
ON_USE = ("json", "argparse", "gettext", "random", "chabauty_rz.plot", "chabauty_rz.cli._parser")


def test_import_loads_nothing_that_waits_for_its_first_use():
    # The tracer wraps each of its TARGETS on the modules loaded by then.
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import chabauty_rz\n"
        "loaded = dict(sys.modules)\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "from tracer import TARGETS\n"
        "for module, name, _ in TARGETS:\n"
        "    assert callable(getattr(loaded[f'chabauty_rz.{module}'], name)), name\n"
        f"print(' '.join(m for m in {ON_USE!r} if m in loaded and m not in bare))\n"
    )
    assert fresh(script).split() == []


def test_classify_loads_no_plot():
    # the parser's help reads the plot caps from earring, not from plot
    script = (
        "import sys\n"
        "from chabauty_rz import run_cli\n"
        "run_cli(['classify', 'I(alpha=2)'])\n"
        "print('chabauty_rz.plot' in sys.modules)\n"
    )
    assert fresh(script).split() == ["I(alpha=2)", "False"]
