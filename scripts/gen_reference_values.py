#!/usr/bin/env python3
"""Regenerate the frozen reference constants used by the test suite.

Every closed-form constant frozen into tests/ is recomputed here with
mpmath at 40 significant digits, with no imports from the package under
test, so the expected values stay independent of the code they check.
Run it after editing a frozen constant; a nonzero exit means some
frozen string no longer matches its regeneration.
"""

import argparse

import mpmath as mp

mp.mp.dps = 40


def _blaschke_d2(alphas):
    def d2(t):
        total = mp.mpf(0)
        for a in alphas:
            a = mp.mpf(a)
            den = 1 + a * a - 2 * a * mp.cos(t)
            total += 2 * a * (1 - a * a) * mp.sin(t) / den**2
        return total

    return d2


def blaschke_slope_root(alphas, u):
    """The t in (0, pi) where h'(t) = -sum (1 - r^2) / (1 + r^2 - 2 r cos t)
    equals u; h' increases there, so the bracket [0, pi] holds one root."""
    rs = [mp.mpf(a) for a in alphas]

    def slope_gap(t):
        slope = -mp.fsum((1 - r * r) / (1 + r * r - 2 * r * mp.cos(t)) for r in rs)
        return slope - mp.mpf(u)

    return mp.findroot(slope_gap, (mp.mpf(0), mp.pi), solver="anderson")


def blaschke_limit(alphas):
    """(2/pi)^(3/2) integral of sqrt(h'') over a half period."""
    d2 = _blaschke_d2(alphas)
    integral = mp.quad(lambda t: mp.sqrt(abs(d2(t))), [0, mp.pi])
    return (2 / mp.pi) ** mp.mpf("1.5") * integral


def girard_closed_form(alpha):
    alpha = mp.mpf(alpha)
    z = 4 * alpha / (1 + alpha) ** 2
    front = 16 * mp.sqrt(2) / mp.gamma(mp.mpf(1) / 4) ** 2
    return front * mp.sqrt(alpha) / (1 + alpha) * mp.hyp2f1("1/2", "3/4", "3/2", z)


def eq_int_hyper(alpha):
    """Hypergeometric side of the single-zero limit identity, bare of
    the (2/pi)^(3/2) dressing."""
    alpha = mp.mpf(alpha)
    z = 4 * alpha / (1 + alpha) ** 2
    front = 8 * mp.pi ** mp.mpf("1.5") / mp.gamma(mp.mpf(1) / 4) ** 2
    return front * mp.sqrt(alpha) / (1 + alpha) * mp.hyp2f1("1/2", "3/4", "3/2", z)


def fresnel_full():
    """Closed form (sqrt(pi)/2) e^{i pi/4}; direct quadrature to infinity
    is not convergent numerically, but the finite segments below pin the
    same integrand and the tail identity ties them to this value."""
    return mp.sqrt(mp.pi) / 2 * mp.exp(1j * mp.pi / 4)


def fresnel_tail(xcut):
    head = mp.quad(lambda u: mp.exp(1j * u * u), [0, xcut])
    return fresnel_full() - head


ROWS = [
    ("gamma(1/4)", lambda: mp.gamma(mp.mpf(1) / 4), "3.6256099082219083119"),
    ("gamma(1/2)", lambda: mp.gamma(mp.mpf(1) / 2), "1.7724538509055160273"),
    ("gamma(1e-3)", lambda: mp.gamma(mp.mpf("0.001")), "999.42377248459546611"),
    ("gamma(50)", lambda: mp.gamma(50), "6.0828186403426756087e62"),
    ("beta(3/4, 1/2)", lambda: mp.beta(mp.mpf(3) / 4, mp.mpf(1) / 2), "2.3962804694711844149"),
    ("16/gamma(1/4)^2", lambda: 16 / mp.gamma(mp.mpf(1) / 4) ** 2, "1.2171884777994833275"),
    ("J_0(2)", lambda: mp.besselj(0, 2), "0.22389077914123566805"),
    ("J_0(10.5)", lambda: mp.besselj(0, mp.mpf("10.5")), "-0.23664819446234712622"),
    ("J_5(10.5)", lambda: mp.besselj(5, mp.mpf("10.5")), "-0.26105250194504920749"),
    ("J_30(10.5)", lambda: mp.besselj(30, mp.mpf("10.5")), "6.1576504742210592905e-12"),
    ("J_0(100)", lambda: mp.besselj(0, 100), "0.019985850304223122424"),
    ("J_150(100)", lambda: mp.besselj(150, 100), "2.7229021718820480749e-16"),
    ("J_0(400)", lambda: mp.besselj(0, 400), "-0.038825181530783955714"),
    ("2F1(1/2,3/4;3/2;0.5)", lambda: mp.hyp2f1("1/2", "3/4", "3/2", "0.5"), "1.1750646978475688821"),
    ("2F1(1/2,3/4;3/2;0.99)", lambda: mp.hyp2f1("1/2", "3/4", "3/2", "0.99"), "1.9989869640697406308"),
    ("girard(0.2)", lambda: girard_closed_form("0.2"), "0.772949394815895863"),
    ("girard(0.5)", lambda: girard_closed_form("0.5"), "1.25133889276404441"),
    ("girard(0.8)", lambda: girard_closed_form("0.8"), "1.68225813256560138"),
    ("limit blaschke:0.3,0.7", lambda: blaschke_limit(["0.3", "0.7"]), "1.87867627073246121"),
    ("psi blaschke:0.3,0.7(-7)", lambda: blaschke_slope_root(["0.3", "0.7"], "-7"),
     "0.11276101886648128342"),
    ("psi blaschke:0.3,0.7(-5)", lambda: blaschke_slope_root(["0.3", "0.7"], "-5"),
     "0.31091441441548036914"),
    ("psi blaschke:0.3,0.7(-3)", lambda: blaschke_slope_root(["0.3", "0.7"], "-3"),
     "0.61236534914273593641"),
    ("psi blaschke:0.3,0.7(-1.5)", lambda: blaschke_slope_root(["0.3", "0.7"], "-1.5"),
     "1.2472900660893048554"),
    ("psi blaschke:0.3,0.7(-1)", lambda: blaschke_slope_root(["0.3", "0.7"], "-1"),
     "1.8439195639281074615"),
    ("psi blaschke:0.3,0.7(-0.75)", lambda: blaschke_slope_root(["0.3", "0.7"], "-0.75"),
     "2.6451763722487448829"),
    ("eq-int hyper side (0.5)", lambda: eq_int_hyper("0.5"), "2.46351243386823428"),
    ("sqrt(8/pi)", lambda: mp.sqrt(8 / mp.pi), "1.5957691216057308"),
    ("zeta(1/2)", lambda: mp.zeta(mp.mpf(1) / 2), "-1.4603545088095868129"),
    ("fresnel full, Re = Im", lambda: mp.re(fresnel_full()), "0.6266570686577501256"),
    ("fresnel tail(0.5)", lambda: fresnel_tail(mp.mpf("0.5")),
     mp.mpc("0.12977303944295541086", "0.58517604438920264401")),
    ("fresnel tail(2)", lambda: fresnel_tail(2),
     mp.mpc("0.16519560622453375274", "-0.17811942068600598469")),
    ("fresnel tail(10)", lambda: fresnel_tail(10),
     mp.mpc("0.025531883844305777473", "0.042986168728126783446")),
    ("fresnel segment [1,2]", lambda: mp.quad(lambda u: mp.exp(1j * u * u), [1, 2]),
     mp.mpc("-0.44306277546705570861", "0.49450818762037500849")),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--digits", type=int, default=20, help="printed significant digits"
    )
    args = parser.parse_args()

    drifted = 0
    for name, regen, frozen in ROWS:
        value = regen()
        target = frozen if isinstance(frozen, mp.mpc) else mp.mpf(frozen)
        rel = abs(value - target) / max(abs(target), mp.mpf("1e-30"))
        # the frozen strings carry 17 to 20 significant digits, so the
        # regeneration must agree to well past double precision but not
        # to the working 40 digits
        ok = rel < mp.mpf("5e-16")
        drifted += 0 if ok else 1
        flag = "ok  " if ok else "DRIFT"
        print(f"{flag} {name:28s} {mp.nstr(value, args.digits)}")
    if drifted:
        print(f"{drifted} frozen constants no longer match their regeneration")
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())
