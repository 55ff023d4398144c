"""Seeded replay: the engine's outputs must stay bit-identical.

A small replay runs every group operation at genus 2, on the int64 path
(p = 1009) and the object path (p = 2^31 - 1), once per representation,
and hashes everything it sees: the precomputed spaces and generating sets,
the bridged operands, every operation's result, the ``equal_class``
verdicts, the ``validate_rep`` report and the Las Vegas ``RetryStats``.
Arrays are hashed through ``repr(ndarray.tolist())``, which is the same on
every platform and for int64 and object arrays alike.  Each (p, form) pair
has its own digest, so a change local to one form shows which digests it
moves.

``RECORDED`` holds the digests of the current algorithm.  A change that is
meant to keep outputs identical must leave them as they are; a change that
alters canonical bases or retry counts on purpose must say so and record
new digests.
"""

import functools
import hashlib

import pytest

import jacarith as ja

RECORDED = {
    (1009, "a"): "af881c9132a116664910089048f63ed3ad42299ea898dbd09f9e540ed90b7e2d",
    (1009, "b0"): "a5842f5d4bacaf1d8b4ca46606762dafbdec49108430e4d0067ccd66c011277b",
    (2**31 - 1, "a"): "27fac545671135c75283e5b6a955c5aa37a6483a9a9970b598479d6f40b7707f",
    (2**31 - 1, "b0"): "c251bf891e85eb8615086fdc633e2086f66a3283cddfa769efe8f51ed190d96d",
}


@functools.lru_cache(maxsize=None)
def _bundle(p: int):
    rng = ja.RandomStream(f"replay-{p}")
    bundle = ja.gen_hyperelliptic(2, p, rng=rng.split("curve"))
    ja.gen_rep_b0(bundle, rng.split("points"))
    return bundle


def _replay(p: int, tag: str) -> str:
    h = hashlib.sha256()

    def put(*items):
        for item in items:
            h.update(repr(item.tolist() if hasattr(item, "tolist") else item).encode())

    def put_point(x):
        put(x.tag, x.divisor.degree, x.space.basis)

    rng = ja.RandomStream(f"replay-{p}")
    bundle = _bundle(p)
    curve = bundle.curve
    model = bundle.large_model(rng.split(f"model-{tag}"), tag)
    put(tag, ja.validate_rep(model.rep).checks)
    put(model.W_D0.space.basis, model.W_2D0.space.basis, model.s0,
        *model.defl_D0.sections, *model.defl_2D0.sections, *model.defl_v.sections)
    for i in range(4):
        r = rng.split(f"{tag}-round-{i}")
        m1 = ja.random_mumford(curve, r.split("m1"))
        m2 = ja.random_mumford(curve, r.split("m2"))
        xs, ys = ja.mumford_to_point(model, m1), ja.mumford_to_point(model, m2)
        xl = ja.mumford_to_point(model, m1, ja.LARGE)
        yl = ja.mumford_to_point(model, m2, ja.LARGE)
        total = ja.mumford_to_point(model, ja.cantor_add(curve, m1, m2))
        for x in (xs, ys, xl, yl, total):
            put_point(x)
        s = ja.add(model, xs, ys, r.split("add"))
        for x in (ja.addflip_small(model, xs, ys, r.split("afs")),
                  ja.addflip_large(model, xl, yl, r.split("afl")),
                  s,
                  ja.negate(model, xs, r.split("neg")),
                  ja.scalar_mul(model, 3, xs, r.split("smul"))):
            put_point(x)
        put(ja.equal_class(model, s, total), ja.equal_class(model, xs, ys))
    stats = model.stats
    put(stats.calls, stats.attempts, sorted(stats.histogram.items()))
    if tag == "b0":
        put(bundle.rep_b0.from_table_space(bundle.precomp("a", with_cubic=False)[1].w_d0).basis)
    return h.hexdigest()


@pytest.mark.parametrize("p, tag", sorted(RECORDED))
def test_seeded_replay_is_bit_identical(p, tag):
    assert _replay(p, tag) == RECORDED[p, tag]
