"""The tolerance table is the only place that states a threshold.

Every module under ``src/entlab`` imports its thresholds from
``entlab.tolerances``; refusals render the tolerance from the table with
the same text as when it was written inline, and the refusals that depend
on a tolerance name the residual, the tolerance and the size.
"""

from __future__ import annotations

import ast
import inspect
import math
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import entlab
from entlab import locc, tolerances
from entlab.errors import (
    InvalidInputError,
    NoConnectorError,
    NotReducibleError,
    NumericalFailureError,
)
from entlab.locc import (
    Instrument,
    _mirror_bob,
    locc_protocol,
    locc_round,
    nielsen_synthesize,
    one_way_reduce,
    simulate,
)
from entlab.quantum import (
    bell_state,
    connect_purifications,
    density,
    product_basis_state,
    pure_state,
    state_from_schmidt,
)
from entlab.spectra import Spectrum, majorizes, spectrum

PACKAGE = Path(entlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py")


def small_literals(path: Path) -> list[tuple[int, str]]:
    """(line, text) of every number token with 0 < value <= 1e-6."""
    found = []
    with path.open() as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NUMBER and 0.0 < abs(ast.literal_eval(tok.string)) <= 1e-6:
                found.append((tok.start[0], tok.string))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tolerance_literal_outside_the_table(path):
    assert small_literals(path) == []


def test_readme_table_lists_every_tolerance_and_each_is_imported():
    """README's "Numerical tolerances" table has one row per name the table
    module defines, and some module imports each name: a tolerance nothing
    reads, or a row for one that is gone, fails here."""
    defined = {name for name in vars(tolerances) if name.isupper()}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Numerical tolerances", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M)) == defined
    imported = {
        alias.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "tolerances"
        for alias in node.names
    }
    assert imported == defined


SCHMIDT_73 = [math.sqrt(0.7), math.sqrt(0.3)]
# Source whose third Schmidt weight is kept by the relative support cut
# (above 1e-12 times 0.5) but lies below the absolute floor.
ILL_CONDITIONED = [math.sqrt(0.5), math.sqrt(0.5 - 9e-13), math.sqrt(9e-13)]


@pytest.mark.parametrize(
    "call, error, text",
    [
        (lambda: density([[0.5, 1e-9], [0.0, 0.5]]), InvalidInputError,
         "density matrix is not Hermitian within 1e-10"),
        (lambda: density(np.diag([1.1, -0.1])), InvalidInputError,
         "density matrix has eigenvalue -1.000e-01 < -1e-10"),
        (lambda: density(np.diag([0.6, 0.6])), InvalidInputError,
         "density matrix trace 1.2 is not 1 within 1e-10"),
        (lambda: pure_state((1, 2), [1.0, 1.0]), InvalidInputError,
         "state norm 1.4142135623730951 is not 1 within 1e-10"),
        (lambda: connect_purifications(state_from_schmidt(SCHMIDT_73), bell_state(2)),
         NoConnectorError, "A-marginals differ beyond 1e-8"),
        (lambda: nielsen_synthesize(state_from_schmidt(ILL_CONDITIONED), product_basis_state(3, 3)),
         NumericalFailureError, "support eigenvalue 9.000e-13 below 1e-12: ill-conditioned"),
    ],
    ids=["hermitian", "eigenvalue", "trace", "norm", "marginals", "support"],
)
def test_refusals_render_the_tolerance_as_before(call, error, text):
    with pytest.raises(error) as info:
        call()
    assert text in str(info.value)


def test_refusals_name_residual_tolerance_and_size(monkeypatch):
    with pytest.raises(NoConnectorError) as info:
        connect_purifications(state_from_schmidt(SCHMIDT_73), bell_state(2))
    assert str(info.value).endswith("trace distance 4.000e-01 (d_A = 2)")

    with pytest.raises(NumericalFailureError) as info:
        nielsen_synthesize(state_from_schmidt(ILL_CONDITIONED), product_basis_state(3, 3))
    assert str(info.value).endswith("ill-conditioned (d = 3)")

    # mass hidden below the Schmidt cut, amplified by a non-contractive operator
    eps = 1e-13
    sigma = state_from_schmidt([math.sqrt(1 - eps**2), eps])
    with pytest.raises(NotReducibleError) as info:
        _mirror_bob(sigma.amplitudes, (2, 2), np.array([[0.0, 1e6], [0.0, 0.0]]))
    assert re.search(r"residual 1\.0\d\de-07 exceeds 1e-08 \(dims = \(2, 2\)\)", str(info.value))

    # a mixing term that moves the source weight out of its support
    monkeypatch.setattr(locc, "_permutohedron_terms", lambda a, b: [(1.0, np.array([1, 0]))])
    with pytest.raises(NumericalFailureError) as info:
        nielsen_synthesize(product_basis_state(2, 2), product_basis_state(2, 2))
    assert str(info.value) == (
        "branch probability leaked: expected 1.0, got 0.0, off by more than 1e-08 (d = 2)"
    )


def test_negative_spectrum_entry_names_the_tolerance():
    with pytest.raises(InvalidInputError) as info:
        spectrum([1.0, -1e-3])
    assert str(info.value) == "negative spectrum entry -1.000e-03 below clip tolerance -1e-10"


def test_super_normalized_completion_names_eigenvalue_and_tolerance():
    # built without ``instrument()``, whose own check would refuse it first
    bad = Instrument((1.2 * np.eye(2),), ("0",))
    with pytest.raises(InvalidInputError) as info:
        simulate(locc_protocol([locc_round("A", {(): bad})]), bell_state(2))
    assert re.fullmatch(r"instrument is super-normalized: max eigenvalue 1\.4[34]\d* exceeds 1 \+ 1e-09",
                        str(info.value))


@pytest.mark.parametrize(
    "func, keyword",
    [(majorizes, "tol"), (Spectrum.is_state, "tol"), (simulate, "max_rounds"),
     (one_way_reduce, "max_rounds")],
    ids=["majorizes", "is_state", "simulate", "one_way_reduce"],
)
def test_limit_keywords_are_gone(func, keyword):
    assert keyword not in inspect.signature(func).parameters
