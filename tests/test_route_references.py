"""The stationary pair and the irreducible and primitive routes against
their references.

``_stationary`` builds the pair once, in the map's own arithmetic, and the
interior-pair and face-lattice routes decide through ``_margin_probe``.
The references in ``tests/helpers.py`` keep the earlier separate exact and
float builds of the pair, and the generator routes for irreducibility
that the face-lattice routes replaced (binomial-power and reachability):
their float reachability with one matrix-vector product per generator per
step, and their exact versions over Fractions, where the routes run on
integer multiples of the map and the generators.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conemix import FLOAT_MODE, NotErgodicError, UnsupportedConeOperation, \
    ZeroSpectralRadiusError, adjoint, from_matrix, is_positive
from conemix.cli import load_problem
from conemix.cones import is_classical
from conemix.classify import _interior_pair, _stationary, \
    _stationary_or_error, irreducible_routes, primitive_routes
from helpers import _binomial_power_route, _reachability_route, \
    generator_route_references, reference_generator_routes_exact, \
    reference_interior_pair, reference_reachability_float, \
    reference_stationary_exact, reference_stationary_float, route_corpus, \
    seeded_face_route_maps, to_float_rows

NO_SIGN = "no sign of the Perron eigenvector lies in the cone"


def _pair_or_error(build):
    try:
        return build(), None
    except NotErgodicError as err:
        return None, err


def _l1(v):
    v = np.asarray(v, dtype=float)
    return v / np.sum(np.abs(v))


def test_stationary_pair_matches_reference():
    checked = no_sign = 0
    for name, a in route_corpus():
        try:
            a.spectrum.positive_r()
        except ZeroSpectralRadiusError:
            continue
        exact = a.spectrum.r_exact is not None
        ours, err = _pair_or_error(lambda: _stationary(a, FLOAT_MODE))
        ref, ref_err = _pair_or_error(
            (lambda: reference_stationary_exact(a)) if exact
            else (lambda: reference_stationary_float(a, FLOAT_MODE)))
        assert (err is None) == (ref_err is None), name
        checked += 1
        if err is None:
            assert ours.exact == exact, name
            if exact:
                # integer directions: x0 = x / sum|x|, y0 = y sum|x| / <y, x>
                norm, pairing = sum(abs(v) for v in ours.x), ours.y @ ours.x
                assert [Fraction(v, norm) for v in ours.x] == ref[0], name
                assert [Fraction(v * norm, pairing) for v in ours.y] \
                    == ref[1], name
                assert all(type(v) is int for v in ours.x), name
                # the report's floats round the exact pair once
                assert list(ours.x0) == [float(v) for v in ref[0]], name
                assert list(ours.y0) == [float(v) for v in ref[1]], name
            else:
                assert np.array_equal(ours.x, ref[0]), name
                assert np.array_equal(ours.y, ref[1]), name
            continue
        assert (err.reason, err.geometric) == \
            (ref_err.reason, ref_err.geometric), name
        for mine, theirs in ((err.x0, ref_err.x0), (err.y0, ref_err.y0)):
            assert (mine is None) == (theirs is None), name
            if mine is None:
                continue
            if exact:
                # the exact pair is l1-normalized like the float one
                np.testing.assert_allclose(mine, _l1(theirs), err_msg=name)
                no_sign += err.reason == NO_SIGN
            else:
                assert np.array_equal(mine, theirs), name
        assert err.pairing == ref_err.pairing, name
    assert checked >= 600
    assert no_sign >= 1


def test_interior_pair_route_matches_reference():
    checked = 0
    for name, a in route_corpus():
        try:
            a.spectrum.positive_r()
        except ZeroSpectralRadiusError:
            continue
        ours, _ = _interior_pair(
            a, _stationary_or_error(a, FLOAT_MODE), FLOAT_MODE)
        ref = reference_interior_pair(a, FLOAT_MODE)
        assert (ours.value, ours.exact, ours.marginal) == \
            (ref.value, ref.exact, ref.marginal), name
        assert not ours.skipped, name
        checked += 1
    assert checked >= 600


def test_float_reachability_matches_reference():
    checked = 0
    for name, a in route_corpus():
        if a.exact is not None:
            continue
        try:
            gens = a.cone.exact_extremal_generators()
            duals = a.cone.exact_dual_generators()
        except UnsupportedConeOperation:
            continue
        ours = _reachability_route(a, gens, duals, FLOAT_MODE)
        ref = reference_reachability_float(a, gens, duals, FLOAT_MODE)
        assert (ours.value, ours.exact, ours.marginal) == \
            (ref.value, ref.exact, ref.marginal), name
        checked += 1
    assert checked >= 300


def test_exact_generator_routes_match_fraction_reference():
    checked = 0
    seen = set()
    for name, a in route_corpus():
        if a.exact is None:
            continue
        try:
            gens = a.cone.exact_extremal_generators()
            duals = a.cone.exact_dual_generators()
        except UnsupportedConeOperation:
            continue
        ours = (_binomial_power_route(a, gens, FLOAT_MODE).value,
                _reachability_route(a, gens, duals, FLOAT_MODE).value)
        assert ours == reference_generator_routes_exact(a, gens, duals), name
        seen.add(ours)
        checked += 1
    assert checked >= 200
    assert {(True, True), (False, False)} <= seen


# ---------------------------------------------------------------------------
# the face-lattice routes against the generator routes and interior-pair
# ---------------------------------------------------------------------------

def _fixture_maps():
    """The fixtures with an exact map, their float twins, and the adjoints
    of both where the cone has a finite dual."""
    for path in sorted(Path(__file__).parent.parent.glob("fixtures/*.json")):
        a, _ = load_problem(path)
        if a.exact is None:
            continue
        for b in (a, from_matrix(to_float_rows(a.exact), a.cone)):
            yield path.stem, b
            try:
                yield f"{path.stem}:adjoint", adjoint(b)
            except UnsupportedConeOperation:
                pass


#: each corpus, and the fewest exact (and float) maps it must check
FACE_CORPORA = {
    "route-corpus": (route_corpus, 10),
    "fixtures": (_fixture_maps, 1),
    "seeded": (lambda: (item for seed in range(3)
                        for item in seeded_face_route_maps(seed)), 100),
}


@pytest.mark.parametrize("corpus", sorted(FACE_CORPORA))
def test_face_routes_agree_with_generator_routes_and_interior_pair(corpus):
    checked = {"exact": 0, "float": 0}
    adjoints = irreducible = primitive = 0
    maps, minimum = FACE_CORPORA[corpus]
    for name, a in maps():
        try:
            irr = irreducible_routes(a)
        except ZeroSpectralRadiusError:
            continue
        if "face-closure" not in irr:
            assert is_classical(a.cone) or is_positive(a).value != "yes", \
                name
            continue
        prim = primitive_routes(a)
        refs = generator_route_references(a)
        values = {n: r.value for n, r in {**irr, **refs}.items()}
        assert len(set(values.values())) == 1, (name, values)
        assert prim["face-orbit"].value == prim["interior-pair"].value, name
        assert not prim["face-orbit"].value or irr["face-closure"].value
        assert irr["face-closure"].exact == (a.exact is not None), name
        checked["exact" if a.exact is not None else "float"] += 1
        adjoints += name.endswith("adjoint")
        irreducible += irr["face-closure"].value
        primitive += prim["face-orbit"].value
    assert min(checked.values()) >= minimum and adjoints >= minimum
    if corpus == "seeded":
        # both verdicts occur, and irreducible-but-not-primitive too
        assert 0 < primitive < irreducible < sum(checked.values())
