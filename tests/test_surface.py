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


def test_import_loads_the_same_modules_in_the_same_order():
    # A fresh interpreter, so modules the test session loaded do not count.
    script = (
        "import sys\n"
        "import chabauty_rz\n"
        "print(' '.join(m for m in sys.modules if m.startswith('chabauty_rz.')))\n"
    )
    src = os.path.dirname(os.path.dirname(chabauty_rz.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # cli imports plot, the one module outside the table
    assert proc.stdout.split() == [
        f"chabauty_rz.{name}" for name in (
            "rationals", "subgroups", "metric", "earring", "denjoy", "oracle",
            "equivalence", "literals", "suites", "plot", "cli",
        )
    ]
