"""A fuzz of the CLI over argv: every call answers or fails with one line.

``run_cli`` runs in-process on drawn argv for every subcommand: literals
built from unbounded integers, mutated literal text, flag values, ``--seq``
files of arbitrary bytes, and at times ``-h`` or ``--help`` anywhere in
argv.  Each call must return 0, 1 or 2 with nothing escaping it, must
print at most one stderr line and no traceback, and must finish within
the deadline.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chabauty_rz import run_cli
from chabauty_rz.suites import MAX_BUDGET, SUITE_NAMES

from strategies import int_text, integers, literals, mutated, rational_text

#: Stand-ins for the paths of the files the commands read and write.
SEQ_PATH, SVG_PATH = "{dir}/seq.txt", "{dir}/model.svg"

literal_text = st.one_of(literals(), mutated(literals()), st.text(max_size=20))
tol = st.one_of(st.just([]), st.tuples(st.just("--tol"), rational_text).map(list))
budget = st.one_of(st.integers(max_value=50), st.integers(min_value=MAX_BUDGET + 1))
help_flag = st.sampled_from([[], [], [], ["-h"], ["--help"]])


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


@st.composite
def commands(draw):
    """argv for one subcommand, and the bytes of the --seq file."""
    command = draw(st.sampled_from(
        ["classify", "dist", "limit", "model", "wind", "verify", "plot"]))
    seq = b""
    if command in ("classify", "model"):
        argv = [command, draw(literal_text)]
    elif command == "dist":
        argv = [command, draw(literal_text), draw(literal_text)] + draw(tol)
    elif command == "limit":
        seq = draw(st.one_of(
            st.binary(),
            st.lists(literal_text, max_size=6).map(lambda ls: "\n".join(ls).encode()),
        ))
        argv = (["limit", "--seq", SEQ_PATH, "--limit", draw(literal_text)]
                + draw(tol) + draw(flag("--tail", integers)))
    elif command == "wind":
        argv = (["wind", "--cone", draw(int_text), "--circle", draw(int_text)]
                + draw(st.sampled_from([[], ["--sampled"]]))
                + draw(flag("--grid", integers)) + draw(flag("--prec", integers)))
    elif command == "verify":
        suite = draw(st.sampled_from(SUITE_NAMES + ("all", "nope")))
        argv = (["verify", "--suite", suite] + draw(flag("--seed", integers))
                + draw(flag("--budget", budget))
                + draw(st.sampled_from([[], ["--json"]])))
    else:
        argv = (["plot", "--out", SVG_PATH] + draw(flag("--circles", integers))
                + draw(flag("--cones", integers)))
    help_args = draw(help_flag)
    if help_args:
        argv.insert(draw(st.integers(0, len(argv))), help_args[0])
    return argv, seq


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


# Pinned: distances that need the level bound, the stop at 1 or the work
# cap, the exact winding count over its cap, a sequence file that is not
# UTF-8, a negative rational tolerance, and help.
@settings(max_examples=150, deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(commands())
@example((["dist", "II(gamma=10000000000,n=1)", "I(alpha=1)"], b""))
@example((["dist", "II(gamma=-10000000000,n=3)", "I(alpha=7/3)"], b""))
@example((["dist", "III(alpha=1000000,beta=0,n=1)", "II(gamma=0,n=1)"], b""))
@example((["dist", "III(alpha=100000,beta=0,n=1)", "II(gamma=1/3,n=1)"], b""))
@example((["dist", "I(alpha=2000001/2)", "I(alpha=1/10000000)"], b""))
@example((["dist", "IV(n=1)", "III(alpha=10000000000,beta=0,n=1)"], b""))
@example((["dist", "gen[(0,-58),(1128827/62,0)]",
           "gen[(0,-58),(-131071,0),(62/9487797032,0)]"], b""))
@example((["wind", "--cone", "2", "--circle", "100000000"], b""))
@example((["limit", "--seq", SEQ_PATH, "--limit", "I(alpha=0)"], b"II(gamma=8,n=1)\n\xff\n"))
@example((["dist", "I(alpha=1)", "I(alpha=2)", "--tol", "-1/2"], b""))
@example((["classify", "-h"], b""))
@example((["wind", "--cone", "x", "--help"], b""))
def test_every_call_answers_or_fails_with_one_line(work_dir, command):
    argv, seq = command
    argv = [a.replace("{dir}", work_dir) for a in argv]
    with open(SEQ_PATH.format(dir=work_dir), "wb") as fh:
        fh.write(seq)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(argv, out=out)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif err or code == 2:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:  # a failing report of limit or verify
        assert "result fail" in out.getvalue() or '"pass": false' in out.getvalue()
