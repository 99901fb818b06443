"""Frobenius, separable and split verdicts on subalgebra extensions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quivalg.algebra import Extension, QuiverPresentation, build_from_quiver, tensor_product
from quivalg.extensions import extension_predicates
from quivalg.linalg import PrimeField, PrimeMatrix

# (frobenius, separable, split) at p = 32003 on the ground-field and identity
# extensions of every corpus algebra and on each factor B (x) 1 or 1 (x) C of
# five tensor products B (x) C.  Each is a known value: k <= A is Frobenius
# iff A is self-injective and separable iff A = k here, and a factor of
# B (x) C is Frobenius iff the other factor is and separable iff it is k
VERDICTS = {
    "ground-field k": (True, True, True),
    "ground-field k2": (True, False, True),
    "ground-field k3": (True, False, True),
    "ground-field k4": (True, False, True),
    "ground-field ka2": (False, False, True),
    "ground-field ka3": (False, False, True),
    "ground-field aus": (False, False, True),
    "ground-field k2xk2": (True, False, True),
    "ground-field ka2xk2": (False, False, True),
    "identity k": (True, True, True),
    "identity k2": (True, True, True),
    "identity k3": (True, True, True),
    "identity k4": (True, True, True),
    "identity ka2": (True, True, True),
    "identity ka3": (True, True, True),
    "identity aus": (True, True, True),
    "identity k2xk2": (True, True, True),
    "identity ka2xk2": (True, True, True),
    "left factor k2 (x) k2": (True, False, True),
    "right factor k2 (x) k2": (True, False, True),
    "left factor k2 (x) ka2": (False, False, True),
    "right factor k2 (x) ka2": (True, False, True),
    "left factor ka2 (x) k2": (True, False, True),
    "right factor ka2 (x) k2": (False, False, True),
    "left factor ka2 (x) ka2": (False, False, True),
    "right factor ka2 (x) ka2": (False, False, True),
    "left factor k3 (x) k2": (True, False, True),
    "right factor k3 (x) k2": (True, False, True),
}


def extension(case, loaded):
    if case.startswith("ground-field "):
        return Extension.ground_field(loaded[case.split()[1]].algebra)
    if case.startswith("identity "):
        return Extension.identity(loaded[case.split()[1]].algebra)
    side, _, b_name, _, c_name = case.split()
    b, c = loaded[b_name].algebra, loaded[c_name].algebra
    a = tensor_product(b, c)
    if side == "left":
        sub, cols = b, [np.kron(b.basis_vector(i), c.unit) for i in range(b.dim)]
    else:
        sub, cols = c, [np.kron(b.unit, c.basis_vector(i)) for i in range(c.dim)]
    return Extension(sub, a, PrimeMatrix(a.field, np.stack(cols, axis=1) % a.field.p))


@pytest.mark.parametrize("case", list(VERDICTS))
def test_extension_verdicts_are_pinned(case, corpus_loaded):
    r = extension_predicates(extension(case, corpus_loaded))
    assert (r.frobenius, r.separable, r.split) == VERDICTS[case]
    # frobenius needs a projective restriction
    assert r.restriction_projective or not r.frobenius


# k[x]/(x^2) <= kA2 by 1 -> e_1 + e_2 and x -> a, where a: 1 -> 2 (so
# a*e_1 = a and e_1*a = 0).  It does not split: a B-bimodule retraction r
# has r(a) = x, so x*r(e_1) = r(a*e_1) = x forces r(e_1) = 1 + c*x; but
# r(e_1*a) = r(0) = 0, while r(e_1)*x = x.  It is not Frobenius: B is a
# Frobenius algebra and kA2 is not, while Frobenius extensions compose.  It
# is separable by t = e_1 (x) e_1 + e_2 (x) e_2, as a*t = a (x) e_1 =
# e_2*a (x) e_1 = e_2 (x) x.e_1 = e_2 (x) a = t*a and mu(t) = 1.
@pytest.mark.parametrize("p", [2, 3, 32003])
def test_a_separable_extension_that_does_not_split(p):
    field = PrimeField(p)
    ka2 = build_from_quiver(QuiverPresentation(("1", "2"), (("a", "1", "2"),)), field)
    dual_numbers = build_from_quiver(QuiverPresentation(("1",), (("x", "1", "1"),), (((1, ("x", "x")),),)), field)
    assert ka2.labels == ["e_1", "e_2", "a"] and dual_numbers.labels == ["e_1", "x"]
    embed = PrimeMatrix(field, np.array([[1, 0], [1, 0], [0, 1]], dtype=np.int64))
    r = extension_predicates(Extension(dual_numbers, ka2, embed))
    assert (r.frobenius, r.separable, r.split) == (False, True, False)


# separability of k <= A for the 9-vertex cyclic Nakayama algebra (dim A =
# 18), in a child process under a 1 GiB address-space cap: the kernel of
# t -> a*t - t*a on A (x) A has 324 unknowns, while a linear system for a
# bimodule section of the multiplication has 5,832 unknowns and about 10 GB
# of constraints
SEPARABLE_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from conftest import cyclic_nakayama
from quivalg.algebra import Extension
from quivalg.extensions import _separable
print(_separable(Extension.ground_field(cyclic_nakayama(9, 32003))))
"""


def test_separable_runs_in_little_memory():
    here = Path(__file__).parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here)])
    done = subprocess.run(
        [sys.executable, "-c", SEPARABLE_CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "False"
