"""Known defects of distalg that the workloads do not run into.

The workloads use only inputs on which every op passes its check.  Two
defects found while defining them are left in the program; each run records
them here, untimed and outside the op counts, so that they stay in view and
a fix shows in the details line:

- ``cli_interval_negative_end_exit``: the exit code of a CLI call whose
  ``--interval`` value, given after a space, ends in a negative number.  The
  CLI's negative-number pattern does not match "-2,-1", so argparse takes it
  for an option and the call is a usage error (exit 1).  The ``cli``
  workload passes ``--interval=a,b`` instead.
- ``oracle_rel_err_known_case``: the oracle's error on a conftest-family
  pair, relative to 1 + |closed form|; it is above acceptance 06's 1e-6.
  About one fresh conftest case in 1500 misses 1e-6, so the ``numeric``
  workload checks the oracle on acceptance 06's own cases.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import run_child

CLI_ARGV = ["-m", "distalg.cli", "residual", "--ode", "1,1;0",
            "--interval", "-2,-1", "--", "H(x)"]
ORACLE_F = ("(3-i)*x*H(x+1)*H(-x) + (1 + (-3-2*i)*x^2)*H(x)*H(-x+2)"
            " + (1 + (-3-2*i)*x^2)*H(x-2) + 4*delta[1](x)"
            " + (-5/2-3/2*i)*delta[2](x-2)")
ORACLE_G = ("(-4-i)*x^2*H(-x-1) + (-4 + (-1-2/3*i)*x)*H(x+1)*H(-x)"
            " + (2 + (-4+i)*x^3)*H(x)*H(-x+1) + (-5/2-i)*x^3*H(x-1)")
ORACLE_BUMP = (Fraction(-5), Fraction(3))


def known_defects(d, env):
    F, G = d.parse_dist(ORACLE_F), d.parse_dist(ORACLE_G)
    t = d.make_bump(*ORACLE_BUMP)
    ref = d.action(d.star(F, G), t)
    err = abs(d.star_oracle(F, G, t) - ref) / (1 + abs(ref))
    return {"cli_interval_negative_end_exit": run_child(CLI_ARGV,
                                                        env).returncode,
            "oracle_rel_err_known_case": err}
