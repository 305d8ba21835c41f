"""Completion outputs pinned byte for byte.

Each case is solved with K = "auto", and its status, the SHA-256 of its
reason and the SHA-256 of its certificate JSON (keys sorted) must equal the
recorded ones: a change of how the level search computes its values may
not change what it answers.  The cases are planted and perturbed problems
of the benchmark corpora (perfbench/corpus.py, "seed S #i" the i-th problem
of that seed's stream), among them multi-vector sweeps that search up to 23
atom-count vectors, three-class searches over two levels, two completed on
a biased fallback split, an equality level met on an irrational split
(Unknown), and float copies of two planted problems whose forced level is
one ulp off its target.  The weight rows of those float certificates are
the exact readings of their measures' binary-exact data, rounded once, and
their atom hints lie within 2^-HINT_BITS, relative, of the exact reading
(`test_float_certificates_read_their_measures_exactly`).
"""

import hashlib
import json
from fractions import Fraction

import pytest

from momentkit.completion import solve_che, solve_subnormal
from momentkit.measure import MomentRecurrence
from momentkit.numeric import Polynomial
from momentkit.principal import HINT_BITS, minimal_measure_ray
from momentkit.tree import BranchClass, PartialWeights

#: (label, solver, float copy, trunk squares, first-weight masses, tails,
#: status, SHA-256 of the reason ("" when there is none), SHA-256 of the
#: certificate JSON or None)
CASES = [
    ('subnormal seed 13 #21', 'subnormal', False,
     ('26297726700/124543061303', '1200470567899617/6889328989532140'),
     ('4550832/18415775', '13652496/128910425', '3413124/18415775'),
     (('4909/4680',), ('379/169',), ('26/11',)),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '4c2c90e58e17b23879795b81543b9fbd03618bed4ca30d4f35bc6e6b4ba951b4'),
    ('subnormal seed 77 #8', 'subnormal', False,
     ('280/139', '417/346'),
     ('5/14', '17/12'),
     (('20/9',), ('2',)),
     'Infeasible',
     'b8a0f5ce0abdfeb6d1370ef50431ef5b965c6a60d1b3270358bfe86ff31f4550',
     None),
    ('subnormal seed 13 #45', 'subnormal', False,
     ('2947672/5207329', '5686403268/19583924135'),
     ('2912/4049', '5096/20245', '728/4049'),
     (('51/44', '2801/2244'), ('8/3', '8/3'), ('13/8', '13/8')),
     'Infeasible',
     '64e02b9f9f85a49950fffad0719354c66485fc66793961c78dd50c2bbbccf909',
     None),
    ('subnormal seed 77 #18', 'subnormal', False,
     ('170221236240/388524634357', '666708272556612/3314613476652685'),
     ('44204160/64477741', '11051040/64477741', '16576560/64477741'),
     (('11941/1144',), ('7472/1265',), ('24/7',)),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '928f59f9a319867c3d5a0223d718d628a1b8c5aca48d9aac0ff165fa2f406e96'),
    ('subnormal seed 44 #43', 'subnormal', False,
     ('2722765620729/10588293539305', '4402612453643019/17929480874331925'),
     ('169738800/1683837737', '190956150/1683837737', '1018432800/1683837737'),
     (('687/220', '21423/4580'), ('6', '6'), ('203/167', '3217/2088')),
     'Unknown',
     '6fc7684a297b7515f4bfeb2d5519020541e4d49b6ec40d447c23377cdebadd5e',
     None),
    ('subnormal seed 41 #6', 'subnormal', False,
     ('31307276448/33492357155', '32072281211628/66655830306953'),
     ('277704/817337', '925680/817337'),
     (('478/539', '17641/18403'), ('5285/2552', '145379/66440')),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '8583344221c00836953d2f9b28a0c06edad699834e8bbd7fec01ab8aa882962c'),
    ('che seed 13 #24', 'che', False,
     ('7360445/6465911', '252170529/151555210'),
     ('7264256/22081335', '3632128/7360445', '1135040/4416267'),
     (('283/256',), ('200141/195085',), ('131/128',)),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'e2be2bea30bde72b49a03dd82685f5511688b574ebbe4cb6fe19d38d0641f2d2'),
    ('che seed 77 #14', 'che', False,
     ('278019507932331/245944234158866', '860804819556031/505576380491040'),
     ('66161248375600/92673169310777', '9451606910800/92673169310777',
      '75612855286400/278019507932331'),
     (('137789/126125',), ('24433/24352',), ('30998/30773',)),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '1c37654ba77d90b4fb94c80995207567248b88d748875fe2e36849340b4dc842'),
    ('che seed 13 #25', 'che', False,
     ('96003787117/77118184810', '107965458734/54483426859'),
     ('37160098560/96003787117', '9909359616/13714826731', '774168720/13714826731'),
     (('8243/6912', '113557/98916'), ('41657/38174', '5289121/4957183'),
      ('35881/35152', '473014/466453')),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '8e0ae64f1b2a48e1413c8db3183926c983f53a3b5c7e0b7d2ced4adf50818445'),
    ('che seed 41 #27', 'che', False,
     ('11124377602754/9410759193363', '56464555160178/35195048410565'),
     ('332044931575/5562188801377', '5312718905200/5562188801377', '569219882700/5562188801377'),
     (('823/775',), ('21818563/19985776',), ('689/686',)),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '836afb26285cfd2f7e6ad71e72b24dcac95b688e2b7d04dcf484512d47339758'),
    ('subnormal seed 303 (moderate split)', 'subnormal', False,
     ('4967099865/5072317937', '918084474279063/3604497452852708'),
     ('36465/142702', '24310/10193'),
     (('73/65', '25825/16352'), ('2543/462', '113753/15258')),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '9c1e56240a4fdf4ae59b20fb73a5e8d5f7f96827a607925fedf7784044c353cd'),
    ('che two-class sweep', 'che', False,
     ('457/411', '5343/3190'),
     ('256/457', '224/457'),
     (('33/32',), ('65/64',)),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '7a539f3cd24502f1aba26a5a9adb649c2e74ab36032b0b34deae648b1c5a2eb5'),
    ('float copy, seed 41 #0', 'subnormal', True,
     ('195/107', '1605/1826'),
     ('35/26', '15/26'),
     (('5/3', '5/3'), ('3', '3')),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '19ef9ef7d5414f89bd3b43c03b9e56587750abd08d950ca65d032cff7e783f88'),
    ('float copy, seed 42 #46', 'subnormal', True,
     ('2496/2039', '79521/148205'),
     ('39/80', '39/80', '117/160'),
     (('6', '6'), ('13/5', '13/5'), ('1', '1')),
     'Feasible',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '639f656f8e91fe536f812551cc790833b3bd6050a930fa1810df734bbdaa822a'),
]


def _scalar(text: str, floats: bool):
    return float(Fraction(text)) if floats else Fraction(text)


def _solve(case):
    _, solver, floats, trunk_sq, masses, tails, *_ = case
    pw = PartialWeights([_scalar(t, floats) for t in trunk_sq],
                        [BranchClass(_scalar(m, floats), tuple(_scalar(t, floats) for t in tail), 1)
                         for m, tail in zip(masses, tails)])
    return (solve_subnormal if solver == "subnormal" else solve_che)(pw, "auto")


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_outputs_are_pinned(case):
    _, solver, floats, trunk_sq, masses, tails, status, reason, certificate = case
    out = _solve(case)
    assert out.status.value == status
    assert hashlib.sha256((out.reason or "").encode()).hexdigest() == reason
    got = out.certificate and json.dumps(out.certificate.to_json(), sort_keys=True).encode()
    assert (got and hashlib.sha256(got).hexdigest()) == certificate


@pytest.mark.parametrize("case", [case for case in CASES if case[2]], ids=lambda case: case[0])
def test_float_certificates_read_their_measures_exactly(case):
    """Each completed weight of a pinned float certificate is the correctly
    rounded ratio of the exact moments of its recurrence's binary-exact
    polynomial and window, and each atom of its `atoms_approx` a float
    within 2^-HINT_BITS relative (`completion._minimal_hint`) of the
    window's minimal measure on the ray, each mass of its exact tilt (from
    its binary-exact atoms)."""
    cert = _solve(case).certificate
    for mu, cls in zip(cert.measures, cert.full.classes):
        assert isinstance(mu, MomentRecurrence)
        exact = MomentRecurrence(Polynomial([Fraction(c) for c in mu.poly.coeffs]),
                                 mu.first_index, [Fraction(v) for v in mu.window])
        p = len(cls.generator.prefix_sq)
        assert cls.generator.weight_sq_row(12)[p:] == [
            float(exact.moment(k + 1) / exact.moment(k)) for k in range(p, 11)]
        parent = minimal_measure_ray(mu.window[:2 * mu.poly.degree])
        rel = Fraction(1, 2 ** HINT_BITS)
        assert len(mu.atoms_hint.atoms) == len(parent.atoms)
        for (x, m), (want_x, want_m) in zip(mu.atoms_hint.atoms, parent.atoms):
            want_m = Fraction(want_m) * Fraction(want_x) ** -mu.first_index
            assert isinstance(x, float) and isinstance(m, float)
            assert abs(Fraction(x) - Fraction(want_x)) <= rel * Fraction(want_x)
            assert abs(Fraction(m) - want_m) <= rel * want_m
