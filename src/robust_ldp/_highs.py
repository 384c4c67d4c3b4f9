"""HiGHS linear programs through ``scipy.optimize.linprog``, imported at
the first call.

Importing ``scipy.optimize`` costs about 0.3 s, and many commands
(``check``, ``envelope``) never solve an LP.
"""


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog(*args, **kwargs)``."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)
