"""Every structured route against its dense fallback, end to end.

Each command runs twice in one process: as the package runs it, and with
every structure detector patched to its dense answer.  The patches send the
lattice to no symmetry, so every block is solved whole
(models._quarter_turn), and a flat H to func_calc for its projection
(ktheory.FLAT_EIG_TOL).  Every structure a constructor records falls back to
a bare dense matrix: sector blocks (GradedOperator._even_built), a lower
block (_odd_built), monomial entries (_monomial_built), diagonal entries
(_diagonal_built) and the identity-window localizer kept as H and D
(_gathered).  A monomial or diagonal route comes only from an entries
record, so those fallbacks send every monomial odd block to the SVD and the
GEMMs, every diagonal sector to eigvalsh and the pair test to the dense L_S.
Spies record the routes each run takes: the structured run must take
exactly the routes listed for its command, so a renamed or bypassed
detector or constructor fails here instead of comparing dense with dense,
and the dense run must take none.  Each reader of an entries record
(READERS) is its own route, named after the record and the caller: a
spectrum, eigenframe, pair test, commutator or norm that stops reading the
record drops its route.

Exit codes and every word of stdout (verdicts, admissible flags, keys) are
equal, and so is every integer token (indices, signatures, counts).  Two
floats a, b agree when |a - b| <= REL_TOL * max(|a|, |b|) + ABS_TOL:
- REL_TOL: the routes differ only in rounding.  Both take backward-stable
  LAPACK calls on matrices of norm at most about 100; the largest relative
  difference seen is 8.6e-15, and a wrong entry, phase or window moves a
  report by far more than 1e-12.
- ABS_TOL: some floats are roundoff of zero on one route and exactly zero
  on the other.  The ladder's lower_bound_slack_min is 0.0 structured and
  about -8e-15 dense, because the floor's cap of 1 is attained exactly; the
  suites' residuals are about 3e-15 against 0.  1e-12 is a few thousand
  ulps of 1, the scale of those quantities, and three orders below the
  1e-9 that the certificate and the suites allow for roundoff.
"""
import contextlib
import io
import re
import sys

import pytest

import localizer_lab.cli as cli
from localizer_lab import grading, ktheory, models
from localizer_lab.grading import GradedOperator

REL_TOL = 1e-12
ABS_TOL = 1e-12

# the constructors that record a structure, and the route each records
RECORDS = {"_even_built": "sectors", "_odd_built": "lower",
           "_monomial_built": "entries", "_diagonal_built": "diagonal",
           "_gathered": "gathered"}

# the readers of an entries record, and the kind of record each reads
READERS = {"_odd_monomial": "monomial", "_even_diagonal": "diagonal",
           "_odd_entries": "entries"}

# a monomial D's spectrum, eigenframe and [D, T]
SPECTRUM = {"monomial:eigenvalues", "monomial:lipschitz_derivative"}
MONOMIAL = SPECTRUM | {"monomial:_odd_eig"}
# the ladder's H = 1: its spectrum, the pair test, and [D, H] as entries
DIAGONAL = {"diagonal", "diagonal:eigenvalues", "diagonal:compress_diagonal",
            "diagonal:lipschitz_derivative", "entries:operator_norm"}

# argv, and the routes the structured run takes
COMMANDS = {
    "oscillator": (("compute", "--model", "oscillator:n=40", "--auto"),
                   MONOMIAL | DIAGONAL | {"sectors", "entries"}),
    "qwz8": (("compute", "--model", "qwz:L=8,m=3.0", "--auto"),
             SPECTRUM | {"symmetry", "flat", "sectors", "lower", "entries", "gathered"}),
    "qwz9": (("compute", "--model", "qwz:L=9,m=1.0", "--auto"),
             SPECTRUM | {"symmetry", "flat", "sectors", "lower", "entries", "gathered"}),
    "mk": (("compute", "--model", "mk:k=2,seed=0", "--auto"),
           SPECTRUM | {"lower", "entries", "gathered"}),
    "random": (("compute", "--model", "random:n=40,seed=1", "--auto"),
               MONOMIAL | {"diagonal", "lower", "entries", "gathered"}),
    "sweep_ladder": (("sweep", "--model", "oscillator:n=60", "--kappa", "0.5,1.0,2.0",
                      "--rho", "1.0,2.0,4.0"),
                     MONOMIAL | DIAGONAL | {"entries"}),
    "sweep_qwz": (("sweep", "--model", "qwz:L=8,m=3.0", "--kappa", "0.5,1.0",
                   "--rho", "1.0,2.0"), MONOMIAL | {"symmetry", "sectors", "lower",
                                                    "entries"}),
    "verify": (("verify", "identities", "--seed", "0"),
               MONOMIAL | DIAGONAL | {"symmetry", "sectors", "lower", "entries",
                                      "gathered"}),
}

NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def run(monkeypatch, argv, dense):
    """(exit code, stdout, routes taken) of one CLI command, with every
    detector patched to its dense answer when dense is set."""
    if dense:
        monkeypatch.setattr(models, "_quarter_turn", lambda L: None)
        monkeypatch.setattr(ktheory, "FLAT_EIG_TOL", -1.0)
        for name in RECORDS:
            record = getattr(GradedOperator, name)

            def bare(*args, record=record, **kwargs):
                op = record(*args, **kwargs)
                return GradedOperator._new(op.space, op.parity, op.hermitian,
                                           matrix=op.matrix)
            monkeypatch.setattr(GradedOperator, name, staticmethod(bare))
    routes, calcs = set(), []

    def spy(owner, name, route, took, wrap=lambda f: f):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if took(out):
                routes.add(route)
            return out
        monkeypatch.setattr(owner, name, wrap(wrapped))

    # one route per reader of an entries record, named after the caller
    for name, kind in READERS.items():
        def read(*args, reader=getattr(grading, name), kind=kind):
            out = reader(*args)
            if out is not None:
                routes.add(f"{kind}:{sys._getframe(1).f_code.co_name}")
            return out
        monkeypatch.setattr(grading, name, read)
    spy(grading, "SymmetryBlocks", "symmetry", lambda out: len(out.blocks) > 1)
    for name, route in RECORDS.items():
        # an operator that kept its structure has formed no matrix yet
        spy(GradedOperator, name, route, lambda out: out._matrix is None, staticmethod)
    # the flat projection is the one that takes no func_calc
    func_calc, projection = ktheory.func_calc, cli.positive_projection

    def counted(f, op):
        calcs.append(op)
        return func_calc(f, op)
    monkeypatch.setattr(ktheory, "func_calc", counted)

    def flat(H):
        before = len(calcs)
        out = projection(H)
        if len(calcs) == before:
            routes.add("flat")
        return out
    monkeypatch.setattr(cli, "positive_projection", flat)

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    monkeypatch.undo()
    return code, stdout.getvalue(), routes


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_dense_twin_reports_the_same(case, monkeypatch):
    argv, taken = COMMANDS[case]
    code, out, routes = run(monkeypatch, argv, dense=False)
    assert routes == taken
    dense_code, dense_out, dense_routes = run(monkeypatch, argv, dense=True)
    assert dense_routes == set()

    assert code == dense_code
    assert NUMBER.sub("#", out) == NUMBER.sub("#", dense_out)
    pairs = list(zip(NUMBER.findall(out), NUMBER.findall(dense_out)))
    assert pairs
    for a, b in pairs:
        if "." in a + b or "e" in a + b:
            x, y = float(a), float(b)
            assert abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL, (a, b)
        else:
            assert a == b
