import numpy as np
import pytest
from hypothesis import settings

import mrcouple as mc
from mrcouple import dgit

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is repeatable and writes no .hypothesis/.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def toy_ops():
    """Coupled scalar pair with a conservative Robin coupling."""
    B = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return mc.from_matrices(
        [[1.0]], [[2.0]], [[1.0]],
        [[1.0]], [[0.5]], [[1.0]],
        [[1.0]], B,
        u0=(np.array([1.0]), np.array([-0.3])),
    )


@pytest.fixture(scope="session")
def toy_linear_ops():
    """Toy whose exactly-coupled solution is u1 = 1 + t, u2 = -0.3 + 2 t."""
    B = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return mc.from_matrices(
        [[1.0]], [[2.0]], [[1.0]],
        [[1.0]], [[0.5]], [[1.0]],
        [[1.0]], B,
        load_f=(lambda t: np.array([4.3 + t]), lambda t: np.array([0.55 + 2 * t])),
        u0=(np.array([1.0]), np.array([-0.3])),
    )


@pytest.fixture(scope="session")
def mesh_pair():
    m1 = mc.build_mesh(1, 4, 4)
    m2 = mc.build_mesh(2, 4, 4)
    return m1, m2, mc.match_interfaces(m1, m2)


@pytest.fixture(scope="session")
def smooth_case():
    return mc.mms_case("smooth", nu=(1.0, 0.5))


@pytest.fixture(scope="session")
def smooth_ops(mesh_pair, smooth_case):
    m1, m2, imap = mesh_pair
    return mc.assemble(m1, m2, imap, smooth_case.problem)


@pytest.fixture(scope="session")
def decay_ops(mesh_pair):
    """Forcing-free diffusion pair with a nontrivial initial bump."""
    m1, m2, imap = mesh_pair
    spec = mc.ProblemSpec(
        nu=(1.0, 0.5),
        u0=(
            lambda x, y: np.sin(np.pi * x) * (1.0 - y),
            lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y),
        ),
    )
    return mc.assemble(m1, m2, imap, spec)


@pytest.fixture(params=["sparse", "dense"])
def step_form(request, monkeypatch):
    """Force dgit.integrate's step form on every system: the sparse block or the dense propagator."""
    entries = 0 if request.param == "sparse" else 2**62
    monkeypatch.setattr(dgit, "DENSE_PROPAGATOR_ENTRIES", entries)
    return request.param
