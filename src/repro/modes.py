"""The replay modes, spelt once.

This module imports nothing, so the CLI can fill ``--mode`` choices
without loading NumPy; library code reads the same tuple as
:data:`repro.system.EXECUTION_MODES`.
"""

#: every replay mode there is: ``serial`` replays on the host in task-list
#: order, ``parallel`` through :class:`repro.system.ParallelEngine`.  Every
#: ``mode=`` check and CLI ``--mode`` choice reads this tuple.
EXECUTION_MODES = ("serial", "parallel")
