"""The route table: the one place that says which function computes each
(quantity, route) pair, read by the CLI and the public dispatchers.

A row maps a quantity and a route to a module, a function in it and the
function's arguments before ``cfg``: a string names a request argument (m,
x, s or deriv), anything else is passed as it stands.  A quantity's first
row is its default, which ``auto`` names.  :func:`run` looks the function
up when the route runs, so a request imports only that module and a
rebound attribute (a tracer, a test's stand-in) is the one that runs.
This module imports no mpmath.
"""

from importlib import import_module

from . import DomainError

# (quantity, route) -> (module, function, arguments before cfg)
TABLE = {
    ("gamma_m", "em"): ("constants", "em_gamma", ("m", "x")),
    ("gamma_m", "hasse"): ("constants", "hasse_gamma", ("m", "x")),
    ("gamma_m", "bell"): ("constants", "bell_series_gamma", ("m", "x")),
    ("gamma_m", "laurent_oracle"): ("constants", "laurent_oracle", ("m", "x")),
    ("gamma_m", "briggs"): ("constants", "briggs_gamma", ("m", "x")),
    ("zeta", "em"): ("kernels", "hurwitz_zeta_em", ("s", "x", "deriv")),
    ("zeta", "hasse"): ("hurwitz", "zeta_hasse", ("s", "x", "deriv")),
    ("zeta", "fourier"): ("hurwitz", "zeta_fourier", ("s", "x")),
    ("zeta", "srivastava-choi"):
        ("hurwitz", "zeta_srivastava_choi", ("s", "x")),
    ("zeta", "poisson"): ("hurwitz", "poisson_zeta", ("s", "x")),
    ("zeta_prime0", "em"): ("kernels", "hurwitz_zeta_em", (0, "x", 1)),
    ("zeta_prime0", "hasse"): ("hurwitz", "zeta_hasse", (0, "x", 1)),
    ("zeta_prime0", "fourier"): ("hurwitz", "_zeta0_fourier", (1, "x")),
    ("zeta_doubleprime0", "em"): ("kernels", "hurwitz_zeta_em", (0, "x", 2)),
    ("zeta_doubleprime0", "hasse"): ("hurwitz", "zeta_hasse", (0, "x", 2)),
    ("zeta_doubleprime0", "fourier"): ("hurwitz", "_zeta0_fourier", (2, "x")),
    ("digamma", "series"): ("gammafuncs", "digamma", ("x",)),
    ("log_gamma", "series"): ("gammafuncs", "log_gamma", ("x",)),
    ("sondow_gamma", "series"): ("fourier", "_sondow_series", ("x",)),
    ("sondow_gamma", "integral"): ("fourier", "_sondow_integral", ("x",)),
    ("sondow_gamma", "2q"): ("fourier", "_sondow_2q", ("x",)),
}

# quantity -> its routes, the default first
ROUTES = {q: tuple(r for q2, r in TABLE if q2 == q) for q, _ in TABLE}

# what stands in for an argument a request leaves out; every other argument
# a row names is required.  deriv = 0 asks for the function itself, which
# every route computes, so it counts as left out.
DEFAULTS = {"zeta": {"x": 1, "deriv": 0}}

# quantities that read an x typed as an exact p/q as that Fraction: Sondow's
# gamma(z) takes it as the angle of the unit-circle point exp(i pi p/q)
EXACT_X = frozenset({"sondow_gamma"})


def resolve(quantity: str, route: str, args: dict):
    """(route, module, function, arguments) of a request, ``auto`` made
    the default route.  Refuses an unknown route, an argument the route
    does not read, and one it reads that is left out (None) with no
    default."""
    choices = ROUTES[quantity]
    route = choices[0] if route == "auto" else route
    if (quantity, route) not in TABLE:
        raise DomainError(f"unknown route {route!r} for {quantity}; routes: "
                          f"{', '.join(choices)} (default first), or auto")
    module, function, names = TABLE[quantity, route]
    given = {k: v for k, v in args.items()
             if v is not None and (k, v) != ("deriv", 0)}
    unread = sorted(set(given) - set(names))
    if unread:
        raise DomainError(f"{quantity} by route {route!r} takes no "
                          f"{' or '.join(unread)}")
    known = {**DEFAULTS.get(quantity, {}), **given}
    missing = [n for n in names if isinstance(n, str) and n not in known]
    if missing:
        raise DomainError(f"{quantity} requires {' and '.join(missing)}")
    call = [known[n] if isinstance(n, str) else n for n in names]
    return route, module, function, call


def run(quantity: str, route: str, cfg, **args):
    """The result of ``quantity`` by ``route`` at the request's arguments."""
    _, module, function, call = resolve(quantity, route, args)
    return getattr(import_module(f".{module}", __package__), function)(
        *call, cfg)
