"""The carrier contract in ``galois``'s docstring is the whole interface.

``ContractCarrier`` exposes exactly the names of ``CONTRACT``, delegating to an
``XPolyCarrier``, and builds plain ``ExtElement``s over itself.  The galois
suite and the families' identity check must run on it as on the real carrier,
and the docstring must name every entry, so the documented contract and what
the code reads cannot drift apart.  The sampler's stream is pinned too: every
seed draws the same operands whatever the sampler reads them through.
"""

import hashlib
import random
import re

import pytest

from qgalois import ExtElement, XPoly, XPolyCarrier, build_families, galois, identity_check, verify

CONTRACT = (
    "order",
    "tau_sign",
    "zero",
    "one",
    "phi",
    "invert",
    "q_element",
    "element",
    "product",
    "coerce",
    "basis",
)


class ContractCarrier:
    """A carrier with the contract's names and no others; records which it is asked for."""

    def __init__(self, order, tau_sign):
        self._inner = XPolyCarrier(order, tau_sign)
        self.read = set()

    def __getattr__(self, name):
        if name not in CONTRACT:
            raise AttributeError(f"{name!r} is not in the carrier contract")
        self.read.add(name)
        if name == "element":
            return lambda components: ExtElement(self, components)
        return getattr(self._inner, name)


def _rows(rows):
    return [(r.name, r.passed) for r in rows]


def test_the_galois_docstring_names_the_whole_contract():
    doc = galois.__doc__
    named = set(re.findall(r"``(\w+)", doc))
    assert set(CONTRACT) <= named, set(CONTRACT) - named
    assert "lift" not in named


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", range(2, 9))
def test_galois_suite_and_families_run_on_the_contract_alone(order, sign):
    real, bare = XPolyCarrier(order, sign), ContractCarrier(order, sign)
    rows = verify.galois_suite(real, 7, 2)
    assert all(rows) and _rows(verify.galois_suite(bare, 7, 2)) == _rows(rows)
    fam = identity_check(build_families(real, real.basis()[1]))
    assert all(fam) and _rows(identity_check(build_families(bare, bare.basis()[1]))) == _rows(fam)
    # every name of the contract is read: it lists nothing the code does not use
    assert bare.read == set(CONTRACT)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", range(2, 9))
def test_the_basis_is_the_x_powers_built_once(order, sign):
    c = XPolyCarrier(order, sign)
    basis = c.basis()
    assert basis == tuple(XPoly.monomial(order, l, 1, sign) for l in range(order))
    assert XPolyCarrier(order, sign).basis() is basis
    assert c.x() == XPoly.x(order, sign)


# sha256 over str() of the first 20 draws of seeds 0..9, each seed's stream
# closed by the generator's next random(): every seed selects the operands it
# selected before the sampler drew through basis().  str() omits the sign
# x**N = s, so both signs share one digest; the sign is checked draw by draw.
SAMPLER_DIGESTS = {
    2: "8fde7e77374b014803e7af954c87982675e464100b3680896b326a1b454d1d21",
    3: "0a0665e6ddc1f11fdf0663dfea1025137132b823439184296afe92639d475038",
    4: "3f446ae146ec04cda0f1695809afc062b7e920dae33f07ad866da77c8e266849",
    5: "a93c0171ac6f631db5fe4aee1b139bf6416f1429f0794a7862bbdc39f955ea57",
    6: "38c103555244bdcc2a4187ca0640272e552e82f773f96505fbb532d835c4e984",
    7: "d8317263bcfa053e78f078a6d9df078bb1a3a52039ae0cf185e067094dfcfbbd",
    8: "8499ba3529da8be9e42995dac9288fe45954efaa322f5e288440b501e71bcf93",
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("order", sorted(SAMPLER_DIGESTS))
def test_the_sampler_stream_is_pinned(order, sign):
    c = XPolyCarrier(order, sign)
    h = hashlib.sha256()
    for seed in range(10):
        rng = random.Random(seed)
        for _ in range(20):
            u = verify._rand_xpoly(rng, c)
            assert u.sign == sign
            h.update(str(u).encode() + b"\n")
        h.update(repr(rng.random()).encode() + b"\n")
    assert h.hexdigest() == SAMPLER_DIGESTS[order]
