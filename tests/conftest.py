import pytest


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at 1 TiB while the test runs, so an
    oversized allocation fails under every overcommit policy, not only
    under the kernel's default heuristic."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2**40 if hard == resource.RLIM_INFINITY else min(2**40, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
