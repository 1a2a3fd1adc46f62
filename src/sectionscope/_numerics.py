"""Brent's root finder and bounded minimizer, and the DOP853 tableau.

Transcriptions on Python floats of scipy 1.17.1's ``brentq``
(optimize/Zeros/brentq.c), of ``minimize_scalar(method="bounded")``
(``_minimize_scalar_bounded``; Brent 1973, *Algorithms for Minimization
without Derivatives*) and of the Dormand-Prince coefficients in
integrate/_ivp/dop853_coefficients.py (Hairer, Norsett & Wanner, *Solving
ODEs I*).  Each does scipy's operations in scipy's order, so it returns
scipy's bits; the tests check all three against scipy.  Holding them here
keeps scipy out of every command but ``hill``.
"""

import math

import numpy as np

_EPS = 2.220446049250313e-16            # float64 machine epsilon


_MAXITER = 100                          # brentq's iterations, scipy's default
_XATOL = 1e-12                          # minimize_bounded's absolute tolerance


def brentq(f, a, b, xtol=2e-12, rtol=4 * _EPS):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Raises ValueError for a bracket without a sign change or a NaN value,
    and RuntimeError after _MAXITER iterations, as scipy does."""
    def call(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    # on floats throughout: a numpy tolerance would make the iterate a
    # numpy scalar, whose division by zero warns instead of raising
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:            # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                       # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                except ZeroDivisionError:   # an underflow; C's inf or NaN
                    stry = math.inf         # fails the test below, as they do
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # a good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations, "
                       f"value is {xcur:f}")


def minimize_bounded(func, lo, hi):
    """Brent's minimizer of func on [lo, hi] to an absolute tolerance of
    _XATOL: the pair (x, func(x)), after at most 500 calls of func, scipy's
    default."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:               # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            else:
                golden = True
        if golden:                      # a golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return float(xf), float(fx)


# --- the DOP853 tableau, scipy's names and literals ---

N_STAGES = 12

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((16, 16))
A[1, 0] = 5.26001519587677318785587544488e-2
A[2, [0, 1]] = [1.97250569845378994544595329183e-2,
                5.91751709536136983633785987549e-2]
A[3, [0, 2]] = [2.95875854768068491816892993775e-2,
                8.87627564304205475450678981324e-2]
A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                   -8.84549479328286085344864962717e-1,
                   9.24834003261792003115737966543e-1]
A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                   1.70828608729473871279604482173e-1,
                   1.25467687566822425016691814123e-1]
A[6, [0, 3, 4, 5]] = [3.7109375e-2,
                      1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2,
                      -1.7578125e-2]
A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                         1.70383925712239993810214054705e-1,
                         1.07262030446373284651809199168e-1,
                         -1.53194377486244017527936158236e-2,
                         8.27378916381402288758473766002e-3]
A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                            -3.36089262944694129406857109825,
                            -8.68219346841726006818189891453e-1,
                            2.75920996994467083049415600797e1,
                            2.01540675504778934086186788979e1,
                            -4.34898841810699588477366255144e1]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                               -2.48811461997166764192642586468,
                               -5.90290826836842996371446475743e-1,
                               2.12300514481811942347288949897e1,
                               1.52792336328824235832596922938e1,
                               -3.32882109689848629194453265587e1,
                               -2.03312017085086261358222928593e-2]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                   5.18637242884406370830023853209,
                                   1.09143734899672957818500254654,
                                   -8.14978701074692612513997267357,
                                   -1.85200656599969598641566180701e1,
                                   2.27394870993505042818970056734e1,
                                   2.49360555267965238987089396762,
                                   -3.0467644718982195003823669022]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                       -1.05344954667372501984066689879e1,
                                       -2.00087205822486249909675718444,
                                       -1.79589318631187989172765950534e1,
                                       2.79488845294199600508499808837e1,
                                       -2.85899827713502369474065508674,
                                       -8.87285693353062954433549289258,
                                       1.23605671757943030647266201528e1,
                                       6.43392746015763530355970484046e-1]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                     4.45031289275240888144113950566,
                                     1.89151789931450038304281599044,
                                     -5.8012039600105847814672114227,
                                     3.1116436695781989440891606237e-1,
                                     -1.52160949662516078556178806805e-1,
                                     2.01365400804030348374776537501e-1,
                                     4.47106157277725905176885569043e-2]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [5.61675022830479523392909219681e-2,
                                      2.53500210216624811088794765333e-1,
                                      -2.46239037470802489917441475441e-1,
                                      -1.24191423263816360469010140626e-1,
                                      1.5329179827876569731206322685e-1,
                                      8.20105229563468988491666602057e-3,
                                      7.56789766054569976138603589584e-3,
                                      -8.298e-3]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [3.18346481635021405060768473261e-2,
                                       2.83009096723667755288322961402e-2,
                                       5.35419883074385676223797384372e-2,
                                       -5.49237485713909884646569340306e-2,
                                       -1.08347328697249322858509316994e-4,
                                       3.82571090835658412954920192323e-4,
                                       -3.40465008687404560802977114492e-4,
                                       1.41312443674632500278074618366e-1]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [-4.28896301583791923408573538692e-1,
                                      -4.69762141536116384314449447206,
                                      7.68342119606259904184240953878,
                                      4.06898981839711007970213554331,
                                      3.56727187455281109270669543021e-1,
                                      -1.39902416515901462129418009734e-3,
                                      2.9475147891527723389556272149,
                                      -9.15095847217987001081870187138]

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                   0.733846688281611857341361741547,
                   0.220588235294117647058823529412e-1]

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                  -0.1225156446376204440720569753e+1,
                                  -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1,
                                  -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841,
                                  0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1]

# the dense-output coefficients of powers 4 to 7; stages 1 to 4 are zero
D = np.zeros((4, 16))
D[:, [0, *range(5, 16)]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]
