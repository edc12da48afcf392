import hypothesis
import pytest

from gwschemes import schemes

# algebraic identities can be slow per example on small CI machines;
# correctness does not depend on wall time
hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(params=["block", "small-block"])
def block(request, monkeypatch):
    """The row-block size of the file codec (schemes.row_blocks): the
    default, or five cells, which is one row per block for every case with
    more than two points."""
    if request.param == "small-block":
        monkeypatch.setattr(schemes, "BLOCK", 5)
    return schemes.BLOCK
