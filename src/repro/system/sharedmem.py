"""What is left of the shared-memory substrate after process mode was deleted."""


def live_segments() -> list:
    """Named shared-memory segments this process holds: always none.

    Read by the benchmark contract (``perf/child.py``) as
    ``system.shm_bytes``, now truthfully 0; removing this module belongs
    to the next ``benchmark`` PR, which may edit ``perf/``.
    """
    return []
