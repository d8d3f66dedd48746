"""The SMPC suite's kernel lane: ``pytest tests/smpc --smpc-kernel python|numpy``.

The option forces one field kernel for the whole session (tests that switch
kernels themselves restore it afterwards); without it the suite runs under
the default ``auto`` rule.
"""

import pytest

from repro.smpc import field


def pytest_addoption(parser):
    parser.addoption(
        "--smpc-kernel",
        choices=("python", "numpy", "auto"),
        default=None,
        help="force one SMPC field kernel for the session",
    )


@pytest.fixture(scope="session", autouse=True)
def smpc_kernel(request):
    name = request.config.getoption("--smpc-kernel", default=None)
    previous = field.set_kernel(name) if name is not None else None
    yield name
    if name is not None:
        field.set_kernel(previous)
