"""The package exports exactly the public names of its four modules."""

import negtype
from negtype import errors, metric, polyeq, quadform


def test_package_exports_the_module_lists():
    names = negtype.__all__
    assert len(names) == len(set(names)) == 53
    assert set(names) == {*errors.__all__, *metric.__all__, *quadform.__all__, *polyeq.__all__}
    for name in names:
        assert getattr(negtype, name) is not None
