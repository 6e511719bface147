"""Package surface: the names ``weylharm`` exports."""

import weylharm


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from weylharm import *", namespace)
    for name in weylharm.__all__:
        assert namespace[name] is getattr(weylharm, name)
