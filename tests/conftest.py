import hypothesis
import pytest

from archarray import scaling

hypothesis.settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    derandomize=True,
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def build_scaling():
    """``build(k, **constants)``: the profile for codimension k built past
    ``make_scaling``'s cache, with the named constants of
    ``archarray.scaling`` replaced while it is built and restored after,
    so the cache never holds a profile of other constants."""
    def build(k, **constants):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in constants.items():
                mp.setattr(scaling, name, value)
            return scaling._build.__wrapped__(k)
    return build
