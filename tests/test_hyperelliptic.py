import functools
import json
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jacarith as ja
from jacarith import hyperelliptic as hyp, linalg


def test_g1_monomial_basis(bundle_g1):
    # Delta = 6, d = 2: pole orders 0,2,3,4,5,6 -> {1, x, y, x^2, xy, x^3}
    assert bundle_g1.Delta == 6 and bundle_g1.d == 2
    assert bundle_g1.rep_a.delta == 6
    assert [m[2] for m in bundle_g1.v_monomials] == [0, 2, 3, 4, 5, 6]
    assert bundle_g1.v_monomials[0][:2] == (0, 0)
    assert bundle_g1.v_monomials[2][:2] == (0, 1)


def test_g2_dimension_identity(bundle_g2):
    assert bundle_g2.Delta == 12
    assert bundle_g2.rep_a.delta == 11 == bundle_g2.Delta + 1 - 2


def test_generated_bundles_validate():
    for g in (1, 2, 3):
        b = ja.gen_hyperelliptic(g, 1009, rng=ja.RandomStream(f"val{g}"))
        assert ja.validate_rep(b.rep_a).passed


def test_fixture_monomials(fixture_bundle):
    assert [m[:2] for m in fixture_bundle.v_monomials] == [(0, 0), (1, 0), (0, 1), (2, 0)]
    assert fixture_bundle.Delta == 4 and fixture_bundle.d is None
    with pytest.raises(ValueError):
        fixture_bundle.precomp("a")


def test_generation_deterministic():
    one = ja.gen_hyperelliptic(2, 1009, rng=ja.RandomStream("det"))
    two = ja.gen_hyperelliptic(2, 1009, rng=ja.RandomStream("det"))
    assert one.curve == two.curve
    assert np.array_equal(one.rep_a.tables, two.rep_a.tables)


def test_singular_curve_rejected():
    with pytest.raises(ja.SingularCurve):
        ja.gen_hyperelliptic(1, 1009, f=(0, 0, 0, 1))  # x^3 has a triple root
    with pytest.raises(ja.SingularCurve):
        ja.gen_hyperelliptic(1, 1009, f=(1, 0, 1))  # wrong degree


def test_characteristic_two_model():
    b = ja.gen_hyperelliptic(3, 2, rng=ja.RandomStream("c2"))
    assert b.curve.h == (1,)
    assert b.rep_a.delta == 16 and b.rep_a.delta_prime == 34
    assert ja.validate_rep(b.rep_a).passed
    with pytest.raises(ja.BadCharacteristic):
        hyp.make_curve(1, 2, (1, 1, 0, 1), h=())
    with pytest.raises(ja.BadCharacteristic):
        hyp.make_curve(1, 1009, (1, 0, 0, 1), h=(1,))


def test_composite_prime_rejected():
    with pytest.raises(ja.CompositeModulus):
        ja.gen_hyperelliptic(1, 15)


def test_rep_b0_points_and_values():
    bundle = ja.gen_hyperelliptic(1, 1009, rng=ja.RandomStream("b0gen"))
    ja.gen_rep_b0(bundle, ja.RandomStream("b0pts"))
    rep = bundle.rep_b0
    assert rep.n == 2 * bundle.Delta + 1 == 13
    assert len(set(rep.points)) == rep.n
    p, f = bundle.p, bundle.curve.f
    for x, y in rep.points:
        assert y * y % p == sum(c * pow(x, i, p) for i, c in enumerate(f)) % p
    assert ja.validate_rep(rep).passed


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
def test_value_matrix_matches_pow_loop(p):
    # running powers of x against one pow per entry, for both monomial lists
    # _attach_rep_b0 evaluates (V and V')
    bundle = ja.gen_rep_b0(ja.gen_hyperelliptic(2, p, rng=ja.RandomStream(f"vm{p}")),
                           ja.RandomStream(f"vm-pts{p}"))
    points = bundle.rep_b0.points
    for monomials in (bundle.v_monomials, hyp.basis_monomials(bundle.curve, 2 * bundle.Delta)):
        want = linalg.zeros(bundle.field, len(points), len(monomials))
        for n, (x, y) in enumerate(points):
            for j, (xd, yd, _) in enumerate(monomials):
                want[n, j] = pow(x, xd, p) * (y if yd else 1) % p
        got = hyp._value_matrix(bundle.curve, bundle.field, monomials, points)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_rep_b0_insufficient_points():
    bundle = ja.gen_hyperelliptic(2, 11, rng=ja.RandomStream("small-p"))
    with pytest.raises(ja.InsufficientRationalPoints):
        ja.gen_rep_b0(bundle, ja.RandomStream("pts"))


def test_save_load_roundtrip(tmp_path, bundle_g2):
    path = tmp_path / "bundle.json"
    ja.save_bundle(bundle_g2, str(path))
    back = ja.load_bundle(str(path))
    assert back.curve == bundle_g2.curve
    assert back.d == bundle_g2.d and back.Delta == bundle_g2.Delta
    assert np.array_equal(back.rep_a.tables, bundle_g2.rep_a.tables)
    assert ja.validate_rep(back.rep_a).passed
    # saving the loaded bundle reproduces the file byte for byte
    path2 = tmp_path / "bundle2.json"
    ja.save_bundle(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_save_load_roundtrip_b0(tmp_path):
    bundle = ja.gen_hyperelliptic(1, 1009, rng=ja.RandomStream("rb"))
    ja.gen_rep_b0(bundle, ja.RandomStream("rbp"))
    path = tmp_path / "b0.json"
    ja.save_bundle(bundle, str(path), rep="b0")
    back = ja.load_bundle(str(path))
    assert back.rep_b0 is not None
    assert back.rep_b0.points == bundle.rep_b0.points
    assert np.array_equal(back.rep_b0.a_v, bundle.rep_b0.a_v)


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
def test_saved_file_holds_the_curve_not_tables(tmp_path, p):
    bundle = ja.gen_hyperelliptic(1, p, rng=ja.RandomStream(f"v2-{p}"))
    ja.gen_rep_b0(bundle, ja.RandomStream(f"v2-pts-{p}"))
    path, path2 = tmp_path / "one.json", tmp_path / "two.json"
    ja.save_bundle(bundle, str(path), rep="b0")
    doc = json.loads(path.read_text())
    assert "tables" not in doc
    assert set(doc) == {"format", "version", "p", "g", "Delta", "d", "rep", "curve", "points"}
    back = ja.load_bundle(str(path))
    assert back.rep_a.tables.dtype == bundle.rep_a.tables.dtype
    assert np.array_equal(back.rep_a.tables, bundle.rep_a.tables)
    assert np.array_equal(back.rep_b0.a_v, bundle.rep_b0.a_v)
    ja.save_bundle(back, str(path2), rep="b0")
    assert path.read_bytes() == path2.read_bytes()


@pytest.fixture(scope="module")
def b0_g1():
    bundle = ja.gen_hyperelliptic(1, 1009, rng=ja.RandomStream("tamper"))
    return ja.gen_rep_b0(bundle, ja.RandomStream("tamper-pts"))


def _off_curve(doc):
    p = doc["p"]
    x, y = doc["points"][0]  # y^2 = f(x)
    doc["points"][0] = [x, next(t for t in range(p) if t * t % p != y * y % p)]


def _duplicate(doc):
    doc["points"][1] = doc["points"][0]


def _out_of_range(doc):
    doc["points"][0][0] += doc["p"]


def _square_factor(doc):
    doc["curve"]["f"] = [0, 0, 0, 1]  # x^3


def _false_coordinate(doc):
    # a root x of f gives the curve point (x, 0); its 0 written as false
    p, f = doc["p"], doc["curve"]["f"]
    x = next(x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0)
    doc["points"][0] = [x, False]


TAMPERED = [
    (lambda doc: doc["points"].pop(), ja.MalformedFile, "evaluation points"),
    (_off_curve, ja.MalformedFile, "not on the curve"),
    (_duplicate, ja.MalformedFile, "not distinct"),
    (_out_of_range, ja.MalformedFile, "outside"),
    (_square_factor, ja.MalformedFile, "repeated root"),
    (lambda doc: doc.update(d=doc["d"] + 1), ja.MalformedFile, "3d"),
    (lambda doc: doc.update(version=1), ja.VersionMismatch, "jacarith gen"),
    (lambda doc: doc.update(version=99), ja.VersionMismatch, "jacarith gen"),
    (lambda doc: doc.update(rep="zzz"), ja.MalformedFile, "representation tag"),
    (lambda doc: doc.update(points=None), ja.MalformedFile, "rep b0"),
    # JSON true/false load as Python ints: "g": true would read this genus-1
    # file as genus True
    (lambda doc: doc.update(g=True), ja.MalformedFile, "g must be an integer"),
    (lambda doc: doc.update(p=True), ja.MalformedFile, "p must be an integer"),
    (lambda doc: doc.update(Delta=float(doc["Delta"])), ja.MalformedFile, "Delta must be"),
    (lambda doc: doc.update(d=str(doc["d"])), ja.MalformedFile, "d must be an integer"),
    (_false_coordinate, ja.MalformedFile, "outside the integers"),
    # the same hole in the curve: true read as 1, [false] as h = 0
    (lambda doc: doc["curve"]["f"].__setitem__(-1, True), ja.MalformedFile,
     "curve.f must be a list of integers"),
    (lambda doc: doc["curve"].update(h=[False]), ja.MalformedFile,
     "curve.h must be a list of integers"),
    (lambda doc: doc["curve"].update(h=[0.0]), ja.MalformedFile,
     "curve.h must be a list of integers"),
    # a stale version-1 field is refused, not ignored
    (lambda doc: doc.update(tables=[]), ja.MalformedFile, r"unknown fields \['tables'\]"),
    (lambda doc: doc["curve"].update(tables=[[1]]), ja.MalformedFile,
     r"unknown curve fields \['tables'\]"),
    # tables past the byte budget are refused before they are built: 3.44 GB
    # here, and Delta = 3,000,000 would spin in the table loops
    (lambda doc: doc.update(Delta=600, d=200), ja.MalformedFile, "over the budget"),
    (lambda doc: doc.update(Delta=3_000_000, d=1_000_000), ja.MalformedFile,
     "over the budget"),
]


def test_load_malformed(tmp_path, b0_g1):
    path = tmp_path / "x.json"
    for text in ("{ not json", "[]"):
        path.write_text(text)
        with pytest.raises(ja.MalformedFile):
            ja.load_bundle(str(path))
    for change, error, message in TAMPERED:
        ja.save_bundle(b0_g1, str(path), rep="b0")
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=message):
            ja.load_bundle(str(path))


def _paths(node, path=()):
    """The key path of every value below node, containers and leaves alike."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@pytest.fixture(scope="module")
def saved_g1(tmp_path_factory, b0_g1):
    """A folder to write into and the text of b0_g1's saved file."""
    folder = tmp_path_factory.mktemp("fuzz")
    ja.save_bundle(b0_g1, str(folder / "g1.json"), rep="b0")
    return folder, (folder / "g1.json").read_text()


_SWAPS = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                   st.lists(st.integers(), max_size=3),
                   st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_INTEGERS = st.one_of(st.integers(-3, 40), st.sampled_from([600, 3_000_000]))


@settings(max_examples=500, deadline=1000)
@given(st.data())
def test_mutated_bundle_loads_or_is_refused(saved_g1, data):
    # one field of a saved file is dropped, swapped for another JSON type, or
    # given another integer: the load returns a bundle or a typed refusal
    folder, text = saved_g1
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    how = data.draw(st.sampled_from(["drop", "swap", "integer"]))
    if how == "drop":
        del parent[path[-1]]
    elif how == "integer" and type(parent[path[-1]]) is int:
        parent[path[-1]] = data.draw(_INTEGERS)
    else:
        parent[path[-1]] = data.draw(_SWAPS)
    target = folder / "fuzzed.json"
    target.write_text(json.dumps(doc))
    try:
        assert isinstance(ja.load_bundle(str(target)), ja.CurveBundle)
    except (ja.MalformedFile, ja.VersionMismatch):
        pass


def test_loaded_bundle_runs_group_law(tmp_path, bundle_g1):
    path = tmp_path / "b.json"
    ja.save_bundle(bundle_g1, str(path))
    back = ja.load_bundle(str(path))
    rng = ja.RandomStream("loaded")
    model = back.large_model(rng)
    m = ja.random_mumford(back.curve, rng.split("m"))
    x = ja.mumford_to_point(model, m)
    got = ja.negate(model, x, rng.split("n"))
    assert ja.oracle_compare(model, got, ja.cantor_negate(back.curve, m))


def _reference_star(bundle, s):
    """s*V' over the V''-monomials, summed term by term from the monomial
    products."""
    p = bundle.p
    vp = hyp.basis_monomials(bundle.curve, 2 * bundle.Delta)
    vpp = hyp.basis_monomials(bundle.curve, 3 * bundle.Delta)
    row = {m[:2]: k for k, m in enumerate(vpp)}
    out = [[0] * len(vp) for _ in vpp]
    for mi, si in zip(bundle.v_monomials, s):
        for j, mj in enumerate(vp):
            for a, e, c in hyp._monomial_product(bundle.curve, mi, mj):
                out[row[a, e]][j] = (out[row[a, e]][j] + int(si) * c) % p
    return out


@pytest.mark.parametrize("g, p", [(1, 1009), (2, 2), (3, 2), (2, 2**31 - 1)])
def test_star_matrix_matches_the_monomial_products(g, p):
    bundle = ja.gen_hyperelliptic(g, p, rng=ja.RandomStream(f"star-{g}-{p}"))
    rep = bundle.rep_a
    rng = ja.RandomStream("star")
    units = list(rep.full_v().basis.T)
    drawn = [np.array([rng.randrange(p) for _ in range(rep.n)], dtype=rep.tables.dtype)
             for _ in range(4)]
    for s in [0 * units[0]] + units + drawn:
        got = bundle.star_matrix(s)
        assert got.dtype == rep.tables.dtype
        assert got.shape == (3 * bundle.Delta + 1 - g, rep.delta_prime)
        assert got.tolist() == _reference_star(bundle, s)


def test_star_matrix_associates(bundle_g1):
    # s * (t . u) must equal t * (s . u): both are the cubic product s t u
    rep = bundle_g1.rep_a
    rng = ja.RandomStream("assoc")
    p = rep.field.p
    for _ in range(20):
        s, t, u = (np.array([rng.randrange(p) for _ in range(rep.n)], dtype=np.int64)
                   for _ in range(3))
        lhs = linalg.mat_mul(rep.field, bundle_g1.star_matrix(s), ja.product(rep, t, u))
        rhs = linalg.mat_mul(rep.field, bundle_g1.star_matrix(t), ja.product(rep, s, u))
        assert np.array_equal(lhs, rhs)


def test_star_matrix_rejects_point_value_sections():
    # the product is in table coordinates; point-value sections have
    # length N = 2*Delta + 1, not delta
    bundle = ja.gen_rep_b0(ja.gen_hyperelliptic(1, 1009, rng=ja.RandomStream("igsv-b0")),
                           ja.RandomStream("igsv-b0-pts"))
    s = bundle.rep_b0.full_v().basis[:, 0]
    with pytest.raises(ja.DimensionMismatch) as err:
        bundle.star_matrix(s)
    assert isinstance(err.value, ValueError)
    with pytest.raises(ja.DimensionMismatch):
        ja.igs_for_v(bundle.rep_b0, bundle.star_matrix, ja.RandomStream("igsv"))


@pytest.mark.parametrize("tag", ["a", "b0"])
def test_precomp_memory_stays_small(tag):
    # finding V's generating set builds no delta x delta'' x delta' array:
    # at g = 12 such tables alone would take 12.7 MiB
    bundle = ja.gen_hyperelliptic(12, 1009, rng=ja.RandomStream("mem-g12"))
    ja.gen_rep_b0(bundle, ja.RandomStream("mem-g12-pts"))
    tracemalloc.start()
    try:
        bundle.precomp(tag, ja.RandomStream("mem"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_monomial_precomp_spaces(bundle_g2, model_g2):
    # stored spaces: codim d and 2d, both containing the constant section
    rep = bundle_g2.rep_a
    assert model_g2.W_D0.dim == rep.delta - model_g2.d
    assert model_g2.W_2D0.dim == rep.delta - 2 * model_g2.d
    s0 = model_g2.s0
    from jacarith.linalg import contains_vector
    assert contains_vector(model_g2.W_D0, s0)
    assert contains_vector(model_g2.W_2D0, s0)
