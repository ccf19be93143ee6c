import pytest
from hypothesis import settings

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def request_dir(tmp_path_factory):
    """The working directory of the requests that tests run with
    ``process.request``, and the b-file cache of ``fetch-bfile A45``."""
    path = tmp_path_factory.mktemp("requests")
    (path / "A000045.txt").write_text("0 0\n1 1\n2 1\n3 2\n")
    return path
