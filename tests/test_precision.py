"""Arguments must reach working precision intact, whatever the ambient one.

The autouse fixture runs every test at 400 bits; these calls run at mpmath's
default 53 bits, where converting an argument before entering the kernel's
working precision would round it to a double.
"""

import pytest
from mpmath import mp, mpf

from stieltjes.constants import laurent_oracle
from stieltjes.gammafuncs import polygamma
from stieltjes.hurwitz import zeta
from stieltjes.kernels import hurwitz_zeta_em

# name -> (evaluator(cfg, *args), mpmath reference(*args), args)
CASES = {
    "hurwitz.zeta": (lambda cfg, s, x: zeta(s, x, cfg=cfg).value, mp.zeta,
                     (7, 3, 1, 2)),
    "hurwitz_zeta_em": (lambda cfg, s, x: hurwitz_zeta_em(s, x, cfg=cfg).value,
                        mp.zeta, (7, 3, 5, 2)),
    "polygamma": (lambda cfg, x: polygamma(1, x, cfg).value,
                  lambda x: mp.psi(1, x), (13, 10)),
    "laurent_oracle": (lambda cfg, x: laurent_oracle(1, x, cfg).value,
                       lambda x: mp.stieltjes(1, x), (1, 3)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_argument_kept_at_working_precision(name, cfg30):
    evaluate, reference, pq = CASES[name]
    with mp.workprec(400):  # arguments p/q built far above 30 digits
        args = [mpf(p) / q for p, q in zip(pq[::2], pq[1::2])]
        ref = reference(*args)
    with mp.workprec(53):
        value = evaluate(cfg30, *args)
    assert abs(value - ref) <= mpf(10) ** -29 * max(1, abs(ref)), name
