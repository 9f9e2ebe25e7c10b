"""Name of the iteration engine, recorded in benchmark run records.

Every orbit runs on the numpy chain engine in ``maps``.
"""


def backend_name() -> str:
    return "python"
